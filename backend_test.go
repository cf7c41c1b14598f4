package punt_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"punt"
	"punt/gates"
)

// Test backends shared by the backend, portfolio and cache tests.  The
// registry is package-global, so each is registered exactly once per test
// binary.

// fakeBackend is a registered custom backend that delegates to the default
// unfolding flow, proving third-party backends ride the same dispatch.
type fakeBackend struct{}

func (fakeBackend) Name() string { return "test-fake" }

func (fakeBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	return punt.New().Synthesize(ctx, spec)
}

// sleeperBackend blocks until its context is cancelled (or an absurdly long
// timeout proves cancellation never came); the portfolio tests race it
// against a real engine to measure loser-cancellation promptness.
type sleeperBackend struct {
	mu      sync.Mutex
	aborted []time.Duration // how long each run waited before cancellation
}

func (*sleeperBackend) Name() string { return "test-sleeper" }

func (s *sleeperBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	start := time.Now()
	select {
	case <-ctx.Done():
		s.mu.Lock()
		s.aborted = append(s.aborted, time.Since(start))
		s.mu.Unlock()
		return nil, ctx.Err()
	case <-time.After(2 * time.Minute):
		return nil, errors.New("test-sleeper was never cancelled")
	}
}

// panicBackend panics on every run; the portfolio must survive it.
type panicBackend struct{}

func (panicBackend) Name() string { return "test-panic" }

func (panicBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	panic("deliberate test panic")
}

var theSleeper = &sleeperBackend{}

func init() {
	punt.Register(fakeBackend{})
	punt.Register(theSleeper)
	punt.Register(panicBackend{})
}

// TestEngineStringParseRoundTrip pins the engine vocabulary: every engine
// name but the scheduler's is a registered backend, and selecting a name
// reports that same name back in Stats.Engine and Stats.Backend.
func TestEngineStringParseRoundTrip(t *testing.T) {
	for _, name := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic, punt.Decompose} {
		if !slices.Contains(punt.Backends(), name) {
			t.Errorf("%q is not registered: %v", name, punt.Backends())
			continue
		}
		res, err := punt.New(punt.WithEngine(name)).Synthesize(context.Background(), punt.Fig1())
		if err != nil {
			t.Fatalf("WithEngine(%q): %v", name, err)
		}
		// Figure 1 is indivisible, so decompose reports its inner engine.
		engine := name
		if name == punt.Decompose {
			engine = punt.Unfolding
		}
		if res.Stats.Engine != engine || res.Stats.Backend != name {
			t.Errorf("WithEngine(%q): stats identity = (%q, %q)", name, res.Stats.Engine, res.Stats.Backend)
		}
	}
	if slices.Contains(punt.Backends(), punt.Portfolio) {
		t.Errorf("%q must not be a registered backend", punt.Portfolio)
	}
	// ParseArchitecture round-trips its rendering: the other half of the
	// CLI vocabulary.
	for _, a := range []gates.Architecture{gates.ComplexGate, gates.StandardC, gates.RSLatch} {
		back, err := gates.ParseArchitecture(a.String())
		if err != nil || back != a {
			t.Errorf("ParseArchitecture(%q) = %v, %v; want %v", a.String(), back, err, a)
		}
	}
}

func TestUnknownEngineIsNotSilentlyUnfolding(t *testing.T) {
	// Dispatching an unknown name fails loudly instead of falling back to
	// the unfolding flow, on the single path and as a portfolio contender.
	for _, opt := range []punt.Option{punt.WithEngine("quantum"), punt.WithContenders(punt.Unfolding, "quantum")} {
		_, err := punt.New(opt).Synthesize(context.Background(), punt.Fig1())
		if !errors.Is(err, punt.ErrUnknownEngine) || !strings.Contains(err.Error(), "no backend") {
			t.Errorf("Synthesize with an unknown engine = %v, want an ErrUnknownEngine diagnostic", err)
		}
	}
}

func TestBackendsRegistry(t *testing.T) {
	names := punt.Backends()
	for _, want := range []string{"unfolding", "explicit", "symbolic", "test-fake"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Backends() = %v: missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Backends() not sorted: %v", names)
		}
	}
}

func TestRegisterRejectsDuplicatesAndReservedNames(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", what)
			}
		}()
		fn()
	}
	mustPanic("duplicate Register", func() { punt.Register(fakeBackend{}) })
	mustPanic("nil Register", func() { punt.Register(nil) })
	mustPanic("reserved name", func() { punt.Register(reservedBackend{}) })
}

type reservedBackend struct{}

func (reservedBackend) Name() string { return "portfolio" }
func (reservedBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	return nil, errors.New("unreachable")
}

func TestCustomBackendThroughDispatch(t *testing.T) {
	res, err := punt.New(punt.WithEngine("test-fake")).Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Eqn(), "b = a + c") {
		t.Errorf("custom backend result:\n%s", res.Eqn())
	}
	if res.Stats.Backend != "test-fake" {
		t.Errorf("Stats.Backend = %q, want test-fake", res.Stats.Backend)
	}
	if res.Spec != punt.Fig1() {
		// Fig1 constructs a fresh Spec per call, so pointer equality cannot
		// hold; the result must still carry a spec with the right name.
		if res.Spec == nil || res.Spec.Name() != "paper-fig1" {
			t.Errorf("result spec = %v", res.Spec)
		}
	}
}

func TestWithEngineUnknownName(t *testing.T) {
	_, err := punt.New(punt.WithEngine("warp-drive")).Synthesize(context.Background(), punt.Fig1())
	var diag *punt.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("unknown backend error is not a *Diagnostic: %v", err)
	}
	if !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "unfolding") {
		t.Errorf("the diagnostic should name the bad backend and list the registered ones: %v", err)
	}
}

// TestDispatchMatchesLegacySelection pins the two remaining selectors to one
// another: WithEngine(name) and a one-contender WithContenders(name)
// portfolio produce identical implementations for every builtin engine, and
// both report the engine's registry name in Stats.
func TestDispatchMatchesLegacySelection(t *testing.T) {
	spec := punt.MullerPipeline(4)
	for _, e := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic} {
		viaEngine, err := punt.New(punt.WithEngine(e)).Synthesize(context.Background(), spec)
		if err != nil {
			t.Fatalf("WithEngine(%v): %v", e, err)
		}
		viaPortfolio, err := punt.New(punt.WithContenders(e)).Synthesize(context.Background(), spec)
		if err != nil {
			t.Fatalf("WithContenders(%v): %v", e, err)
		}
		if viaEngine.Eqn() != viaPortfolio.Eqn() || viaEngine.Verilog() != viaPortfolio.Verilog() {
			t.Errorf("%v: WithEngine and WithContenders disagree", e)
		}
		for _, st := range []punt.Stats{viaEngine.Stats, viaPortfolio.Stats} {
			if st.Engine != e || st.Backend != e {
				t.Errorf("%v: stats identity = (%v, %q)", e, st.Engine, st.Backend)
			}
		}
	}
}

func TestStatsStringCoversTable1Columns(t *testing.T) {
	res, err := punt.New().Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.String()
	for _, want := range []string{"events=8", "conditions=", "cutoffs=2", "refined-terms=", "refined-signals="} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() missing %q: %s", want, s)
		}
	}
	if res.Stats.Conditions <= 0 {
		t.Errorf("Conditions not filled: %+v", res.Stats)
	}
}
