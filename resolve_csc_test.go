package punt_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"punt"
	"punt/internal/benchgen"
	"punt/internal/resolve"
	"punt/internal/stg"
)

// indexOf returns the position of s in list.
func indexOf(list []string, s string) (int, bool) {
	for i, v := range list {
		if v == s {
			return i, true
		}
	}
	return -1, false
}

// loadCSC loads the canonical CSC-conflicted controller of testdata.
func loadCSC(t *testing.T) *punt.Spec {
	t.Helper()
	spec, err := punt.LoadFile("testdata/csc.g")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestResolveCSCAllEngines: every registered engine (and the portfolio
// scheduler racing them) fails on the broken controller without the resolver
// and transparently succeeds with it, producing a verified circuit and the
// full resolution record.
func TestResolveCSCAllEngines(t *testing.T) {
	ctx := context.Background()
	spec := loadCSC(t)
	if _, err := punt.New().Synthesize(ctx, spec); !errors.Is(err, punt.ErrCSC) {
		t.Fatalf("without the resolver synthesis must fail with ErrCSC, got %v", err)
	}
	for _, engine := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic, punt.Portfolio} {
		res, err := punt.New(punt.WithEngine(engine), punt.WithResolveCSC(4)).Synthesize(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !res.Resolved() {
			t.Fatalf("%s: result not marked as resolved", engine)
		}
		if res.Stats.CSCSignalsInserted != 1 || res.Stats.CSCIterations != 1 {
			t.Errorf("%s: stats = %s, want one signal in one iteration", engine, &res.Stats)
		}
		d := res.Resolution
		if d.Kind != punt.KindResolved || d.Signal != "csc0" || len(d.Trace) != 1 {
			t.Errorf("%s: resolution diagnostic = %+v", engine, d)
		}
		if !strings.Contains(d.Error(), "CSC resolved") {
			t.Errorf("%s: diagnostic renders %q", engine, d.Error())
		}
		// The result's Spec is the repaired specification: it declares the
		// inserted internal signal and satisfies CSC.
		if want := []string{"req", "out1", "out2", "csc0"}; strings.Join(res.Spec.SignalNames(), " ") != strings.Join(want, " ") {
			t.Errorf("%s: repaired signals = %v", engine, res.Spec.SignalNames())
		}
		sg, err := punt.BuildStateGraph(ctx, res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if c := sg.CSCConflicts(); len(c) != 0 {
			t.Errorf("%s: repaired spec still has %d conflicts", engine, len(c))
		}
		// Closed loop: the implementation conforms to the repaired spec.
		if _, err := punt.Verify(ctx, res.Spec, res); err != nil {
			t.Errorf("%s: verify: %v", engine, err)
		}
	}
}

// TestResolveCSCStructuredConflicts exercises the structured conflict API on
// the broken controller: the pair of states, the differing outputs and the
// witness traces are all exposed.
func TestResolveCSCStructuredConflicts(t *testing.T) {
	sg, err := punt.BuildStateGraph(context.Background(), loadCSC(t))
	if err != nil {
		t.Fatal(err)
	}
	conflicts := sg.CSCConflicts()
	if len(conflicts) != 1 {
		t.Fatalf("want 1 conflict, got %d", len(conflicts))
	}
	c := conflicts[0]
	if c.Code != "100" || c.StateA == c.StateB {
		t.Errorf("conflict pair = %+v", c)
	}
	if strings.Join(c.DiffSignals, ",") != "out1,out2" {
		t.Errorf("DiffSignals = %v, want out1,out2", c.DiffSignals)
	}
	if len(c.TraceA) == len(c.TraceB) {
		t.Errorf("the witnesses must reach different phases: %v vs %v", c.TraceA, c.TraceB)
	}
	if !strings.Contains(c.String(), "CSC conflict on code 100") {
		t.Errorf("rendered conflict = %q", c.String())
	}
}

// TestResolveCSCCacheKey: the content-addressed cache must never serve a
// resolver-repaired result to a configuration without the resolver (which is
// required to fail with ErrCSC), nor across different resolver bounds.
func TestResolveCSCCacheKey(t *testing.T) {
	ctx := context.Background()
	spec := loadCSC(t)
	cache := punt.NewLRU(0)

	resolved, err := punt.New(punt.WithCache(cache), punt.WithResolveCSC(4)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Stats.Cached {
		t.Fatal("first run cannot be a cache hit")
	}

	// Same configuration again: a hit, with the resolution record intact.
	again, err := punt.New(punt.WithCache(cache), punt.WithResolveCSC(4)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.Cached {
		t.Error("identical resolver configuration must hit the cache")
	}
	if !again.Resolved() || again.Stats.CSCSignalsInserted != 1 {
		t.Error("the cached result lost its resolution record")
	}
	// The cache hit must keep the repaired Spec — the implementation realises
	// csc0, so serving it with the caller's unrepaired spec would break
	// Result.Spec's contract (and Verify below).
	if _, ok := indexOf(again.Spec.SignalNames(), "csc0"); !ok {
		t.Errorf("cached result's Spec lost the inserted signal: %v", again.Spec.SignalNames())
	}
	if _, err := punt.Verify(ctx, again.Spec, again); err != nil {
		t.Errorf("cached resolved result must verify against its own Spec: %v", err)
	}

	// No resolver: the shared cache must not leak the repaired result.
	if _, err := punt.New(punt.WithCache(cache)).Synthesize(ctx, spec); !errors.Is(err, punt.ErrCSC) {
		t.Errorf("unresolved configuration must still fail with ErrCSC, got %v", err)
	}

	// A different signal bound is a different configuration.
	other, err := punt.New(punt.WithCache(cache), punt.WithResolveCSC(6)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats.Cached {
		t.Error("a different resolver bound must miss the cache")
	}

	st := cache.Stats()
	if st.Entries != 2 {
		t.Errorf("cache entries = %d, want 2 (one per resolver bound)", st.Entries)
	}
	if !strings.Contains(st.String(), "lru: 2/") {
		t.Errorf("cache stats render %q", st.String())
	}
}

// TestDiagKindStrings pins the rendered name of every diagnostic kind —
// KindResolved included — since CLIs and logs key off them.
func TestDiagKindStrings(t *testing.T) {
	want := map[punt.DiagKind]string{
		punt.KindUnknown:        "error",
		punt.KindParse:          "parse error",
		punt.KindNotSafe:        "not safe",
		punt.KindInconsistent:   "inconsistent state assignment",
		punt.KindNotSemiModular: "not semi-modular",
		punt.KindCSC:            "CSC conflict",
		punt.KindLimit:          "resource limit",
		punt.KindCanceled:       "canceled",
		punt.KindConformance:    "conformance violation",
		punt.KindHazard:         "hazard",
		punt.KindLiveness:       "lost liveness",
		punt.KindResolved:       "CSC resolved",
	}
	for kind, name := range want {
		if kind.String() != name {
			t.Errorf("%d renders %q, want %q", kind, kind.String(), name)
		}
	}
	if punt.KindResolved.IsVerification() {
		t.Error("KindResolved is informational, not a verification failure")
	}
}

// TestResolveCSCBatch: Batch items flow through the resolver individually and
// the summary counts the repaired ones.
func TestResolveCSCBatch(t *testing.T) {
	fig1, err := punt.LoadFile("testdata/fig1.g")
	if err != nil {
		t.Fatal(err)
	}
	items := []punt.BatchItem{
		{Name: "clean", Spec: fig1},
		{Name: "broken", Spec: loadCSC(t)},
	}
	results, sum := punt.Batch(context.Background(), items, punt.WithResolveCSC(4))
	if sum.Succeeded != 2 || sum.Failed != 0 {
		t.Fatalf("summary = %s", sum)
	}
	if sum.Resolved != 1 {
		t.Errorf("summary.Resolved = %d, want 1", sum.Resolved)
	}
	if results[0].Result.Resolved() {
		t.Error("the clean item must not be marked resolved")
	}
	if !results[1].Result.Resolved() {
		t.Error("the broken item must be marked resolved")
	}
	if !strings.Contains(sum.String(), "1 CSC-resolved") {
		t.Errorf("summary string = %q", sum.String())
	}
}

// TestResolveCSCBudgetTooSmall: when the signal bound cannot repair the
// specification the failure is still a CSC diagnostic, matched by the
// package sentinel.
func TestResolveCSCBudgetTooSmall(t *testing.T) {
	ctx := context.Background()
	// Find a generated specification whose repair needs at least two signals.
	for seed := int64(0); seed < 2000; seed++ {
		g := benchgen.RandomSTG(seed, 4+int(seed)%9)
		spec, err := punt.Parse(stg.Format(g))
		if err != nil {
			t.Fatal(err)
		}
		sg, err := punt.BuildStateGraph(ctx, spec, punt.WithMaxStates(100000))
		if err != nil || len(sg.CSCConflicts()) == 0 {
			continue
		}
		res, err := punt.New(punt.WithResolveCSC(punt.DefaultResolveSignals)).Synthesize(ctx, spec)
		if err != nil || res.Stats.CSCSignalsInserted < 2 {
			continue
		}
		_, err = punt.New(punt.WithResolveCSC(1)).Synthesize(ctx, spec)
		if !errors.Is(err, punt.ErrCSC) {
			t.Fatalf("seed %d: want ErrCSC with an insufficient bound, got %v", seed, err)
		}
		var diag *punt.Diagnostic
		if !errors.As(err, &diag) || diag.Kind != punt.KindCSC || diag.Op != "resolve" {
			t.Fatalf("seed %d: diagnostic = %+v", seed, diag)
		}
		var un *resolve.UnresolvedError
		if !errors.As(err, &un) {
			t.Fatalf("seed %d: the typed resolver error must be reachable, got %v", seed, err)
		}
		return
	}
	t.Fatal("no generated specification needing two signals found in range")
}

// TestResolveCSCProperty is the acceptance sweep: at least 200 RandomSTG
// seeds whose deliberate CSC gadget produced a real conflict synthesize
// successfully through WithResolveCSC, and every repaired circuit passes the
// closed-loop verifier and the differential harness (all registered engines
// against the post-insertion state-graph oracle).
func TestResolveCSCProperty(t *testing.T) {
	ctx := context.Background()
	want := 200
	if testing.Short() {
		want = 25
	}
	synth := punt.New(punt.WithResolveCSC(punt.DefaultResolveSignals), punt.WithMaxStates(200000))
	found := 0
	for seed := int64(0); found < want && seed < 20000; seed++ {
		g := benchgen.RandomSTG(seed, 4+int(seed)%9)
		spec, err := punt.Parse(stg.Format(g))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sg, err := punt.BuildStateGraph(ctx, spec, punt.WithMaxStates(200000))
		if err != nil {
			continue // state explosion on an adversarial budget
		}
		if len(sg.CSCConflicts()) == 0 {
			continue
		}
		found++
		res, err := synth.Synthesize(ctx, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Resolved() || res.Stats.CSCSignalsInserted == 0 {
			t.Fatalf("seed %d: resolution not recorded", seed)
		}
		if _, err := punt.Verify(ctx, res.Spec, res); err != nil {
			t.Fatalf("seed %d: closed-loop verification: %v", seed, err)
		}
		rep, err := punt.Differential(ctx, res.Spec, punt.WithMaxStates(200000))
		if err != nil {
			t.Fatalf("seed %d: differential: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: differential disagreement on the repaired spec: %s", seed, rep)
		}
	}
	if found < want {
		t.Fatalf("only %d CSC-conflicted seeds found, want %d", found, want)
	}
	t.Logf("resolved, verified and cross-checked %d repaired specifications", found)
}
