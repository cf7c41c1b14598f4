package punt_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"punt"
	"punt/internal/faultinject"
)

// The resource-governance tests: WithDeadline/WithMemoryBudget watchdogs,
// the WithFallback degradation ladder, central panic recovery and the
// anti-poisoning cache guarantees.

// pipelineSpec is a pipeline-class specification whose explicit state space
// (2^22-ish states) is far beyond any test-sized budget, while the unfolding
// segment stays linear — the paper's own motivating asymmetry.
func pipelineSpec() *punt.Spec { return punt.MullerPipelineWithSignals(24) }

func TestDeadlineBudgetTrips(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	s := punt.New(punt.WithEngine(punt.Explicit), punt.WithDeadline(50*time.Millisecond))
	start := time.Now()
	_, err := s.Synthesize(context.Background(), pipelineSpec())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("explicit enumeration of a 22-stage pipeline finished within 50ms; expected a budget trip")
	}
	if !errors.Is(err, punt.ErrBudget) {
		t.Fatalf("err = %v, want errors.Is(err, ErrBudget)", err)
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("err = %T, want *Diagnostic", err)
	}
	if d.Kind != punt.KindBudget {
		t.Errorf("Kind = %v, want KindBudget", d.Kind)
	}
	if len(d.Attempts) != 1 || d.Attempts[0].Outcome != punt.KindBudget.String() {
		t.Errorf("Attempts = %v, want one budget-exhausted attempt", d.Attempts)
	}
	var be *punt.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a wrapped *BudgetError", err)
	}
	if be.Deadline != 50*time.Millisecond || be.Elapsed <= 0 {
		t.Errorf("BudgetError = %+v, want Deadline=50ms and positive Elapsed", be)
	}
	// The watchdog must also have aborted the attempt promptly, not after the
	// full enumeration ran to completion.
	if elapsed > 5*time.Second {
		t.Errorf("budget trip took %v to surface; the watchdog did not abort the attempt", elapsed)
	}
}

func TestDeadlineBudgetCarriesPartialStats(t *testing.T) {
	// The explicit engine reports progress per BFS level; a deadline long
	// enough for a few levels must surface the partial state count.
	s := punt.New(punt.WithEngine(punt.Explicit), punt.WithDeadline(150*time.Millisecond))
	_, err := s.Synthesize(context.Background(), pipelineSpec())
	var be *punt.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a wrapped *BudgetError", err)
	}
	if be.States <= 0 {
		t.Errorf("BudgetError.States = %d, want >0 (partial state space observed before the trip)", be.States)
	}
	if !strings.Contains(be.Error(), "states built") {
		t.Errorf("BudgetError.Error() = %q, want the partial progress rendered", be.Error())
	}
}

// allocBackend allocates heap steadily until cancelled, so a memory budget
// has something to trip on without depending on engine internals.
type allocBackend struct {
	mu    sync.Mutex
	chunk [][]byte
}

func (*allocBackend) Name() string { return "test-alloc" }

func (b *allocBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	b.mu.Lock()
	b.chunk = nil
	b.mu.Unlock()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for i := 0; i < 2000; i++ { // hard cap ~4s / ~2GB in case cancellation is broken
		select {
		case <-ctx.Done():
			b.mu.Lock()
			b.chunk = nil // release promptly
			b.mu.Unlock()
			return nil, ctx.Err()
		case <-tick.C:
			buf := make([]byte, 1<<20)
			buf[0] = byte(i)
			b.mu.Lock()
			b.chunk = append(b.chunk, buf)
			b.mu.Unlock()
		}
	}
	return nil, errors.New("test-alloc was never cancelled")
}

var theAllocator = &allocBackend{}

func init() {
	punt.Register(theAllocator)
}

func TestMemoryBudgetTrips(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	s := punt.New(punt.WithEngine("test-alloc"), punt.WithMemoryBudget(8<<20))
	_, err := s.Synthesize(context.Background(), punt.Fig1())
	if !errors.Is(err, punt.ErrBudget) {
		t.Fatalf("err = %v, want errors.Is(err, ErrBudget)", err)
	}
	var be *punt.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a wrapped *BudgetError", err)
	}
	if be.MemoryBudget != 8<<20 || be.HeapGrowth <= be.MemoryBudget {
		t.Errorf("BudgetError = %+v, want MemoryBudget=8MiB and HeapGrowth beyond it", be)
	}
}

func TestFallbackLadderSucceeds(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	// Primary: explicit enumeration under a state bound the pipeline blows
	// through (ErrLimit).  Fallback: the unfolding engine — the paper's
	// segment stays linear where the state space is exponential.
	s := punt.New(
		punt.WithEngine(punt.Explicit),
		punt.WithMaxStates(500),
		punt.WithFallback(punt.Fallback("segment", punt.WithEngine(punt.Unfolding))),
	)
	res, err := s.Synthesize(context.Background(), pipelineSpec())
	if err != nil {
		t.Fatalf("Synthesize with fallback: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("Degraded() = false, want the fallback step's result tagged")
	}
	if res.Degradation.Kind != punt.KindDegraded || res.Degradation.Signal != "segment" {
		t.Errorf("Degradation = kind %v signal %q, want KindDegraded/segment", res.Degradation.Kind, res.Degradation.Signal)
	}
	at := res.Stats.Attempts
	if len(at) < 2 {
		t.Fatalf("Stats.Attempts = %v, want >= 2 entries", at)
	}
	if at[0].Outcome != punt.KindLimit.String() || at[0].Step != "" {
		t.Errorf("attempt 0 = %+v, want the primary configuration failing with a resource limit", at[0])
	}
	last := at[len(at)-1]
	if last.Outcome != "ok" || last.Step != "segment" || last.Backend != "unfolding" {
		t.Errorf("final attempt = %+v, want segment[unfolding]=ok", last)
	}
	if res.Impl == nil || res.Literals() == 0 {
		t.Error("degraded result carries no implementation")
	}
	if !strings.Contains(res.Stats.String(), "attempts=[") {
		t.Errorf("Stats.String() = %q, want the attempt breakdown rendered", res.Stats.String())
	}
}

func TestFallbackEachAttemptGetsFreshDeadline(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	// Primary: a backend that blocks until cancelled — only its own 100ms
	// deadline ends it.  Fallback: the real flow.  The fallback attempt must
	// run under a fresh deadline, not the primary's exhausted one.
	s := punt.New(
		punt.WithEngine("test-sleeper"),
		punt.WithDeadline(100*time.Millisecond),
		punt.WithFallback(punt.Fallback("real", punt.WithEngine("unfolding"))),
	)
	res, err := s.Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	at := res.Stats.Attempts
	if len(at) != 2 {
		t.Fatalf("Attempts = %v, want sleeper-budget then unfolding-ok", at)
	}
	if at[0].Outcome != punt.KindBudget.String() {
		t.Errorf("attempt 0 outcome = %q, want %q", at[0].Outcome, punt.KindBudget.String())
	}
	if at[1].Outcome != "ok" {
		t.Errorf("attempt 1 outcome = %q, want ok", at[1].Outcome)
	}
}

func TestFallbackNotTriggeredOnCSC(t *testing.T) {
	// A CSC conflict is a property of the specification: no cheaper
	// configuration fixes it, so the ladder must not run.
	spec, err := punt.LoadFile("testdata/csc.g")
	if err != nil {
		t.Fatal(err)
	}
	s := punt.New(punt.WithFallback(punt.Fallback("noop", punt.WithEngine(punt.Unfolding))))
	_, err = s.Synthesize(context.Background(), spec)
	if !errors.Is(err, punt.ErrCSC) {
		t.Fatalf("err = %v, want ErrCSC", err)
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("err = %T, want *Diagnostic", err)
	}
	if len(d.Attempts) != 1 {
		t.Errorf("Attempts = %v, want exactly the primary attempt (no ladder on CSC)", d.Attempts)
	}
}

func TestCallerCancellationNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := punt.New(punt.WithFallback(punt.Fallback("noop", punt.WithEngine(punt.Unfolding))))
	_, err := s.Synthesize(ctx, pipelineSpec())
	if err == nil {
		t.Fatal("Synthesize under a cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("err = %T, want *Diagnostic", err)
	}
	if len(d.Attempts) > 1 {
		t.Errorf("Attempts = %v, want no ladder walk after the caller's own cancellation", d.Attempts)
	}
}

// Satellite regression: a backend panic during plain Synthesizer.Synthesize —
// not just under Batch or the portfolio — must surface as a structured
// KindPanic diagnostic instead of crashing the process.
func TestPlainSynthesizePanicIsDiagnostic(t *testing.T) {
	res, err := punt.New(punt.WithEngine("test-panic")).Synthesize(context.Background(), punt.Fig1())
	if err == nil {
		t.Fatalf("panicking backend returned a result: %v", res)
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("err = %T, want *Diagnostic", err)
	}
	if d.Kind != punt.KindPanic {
		t.Errorf("Kind = %v, want KindPanic", d.Kind)
	}
	var pe *punt.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if pe.Backend != "test-panic" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = backend %q stack %d bytes, want test-panic with a captured stack", pe.Backend, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %q, want the panic rendered", err)
	}
}

func TestPanicDuringFallbackLadder(t *testing.T) {
	// A panicking rung is not retryable — the failure is structural, and the
	// diagnostic carries the ladder so far.
	s := punt.New(
		punt.WithEngine("test-panic"),
		punt.WithFallback(punt.Fallback("still-panics", punt.WithEngine("test-panic"))),
	)
	_, err := s.Synthesize(context.Background(), punt.Fig1())
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("err = %T, want *Diagnostic", err)
	}
	if d.Kind != punt.KindPanic {
		t.Errorf("Kind = %v, want KindPanic", d.Kind)
	}
	if len(d.Attempts) != 1 {
		t.Errorf("Attempts = %v, want the panic to stop the ladder immediately", d.Attempts)
	}
}

// lateBackend ignores cancellation and hands back a "result" only after its
// context has already expired — the result of truncated work that must never
// be cached or returned.
type lateBackend struct{}

func (lateBackend) Name() string { return "test-late" }

func (lateBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	<-ctx.Done()
	// Fabricate a plausible result anyway, as a buggy backend racing its own
	// cancellation check would.
	res, err := punt.New().Synthesize(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	punt.Register(lateBackend{})
}

// Satellite regression: results produced under an expired or faulted context
// must never be returned, and must never poison the cache.
func TestExpiredContextResultNotCachedOrReturned(t *testing.T) {
	cache := punt.NewLRU(0)
	s := punt.New(punt.WithEngine("test-late"), punt.WithCache(cache), punt.WithDeadline(30*time.Millisecond))
	res, err := s.Synthesize(context.Background(), punt.Fig1())
	if err == nil {
		t.Fatalf("late result under an expired budget was returned: %v", res)
	}
	if !errors.Is(err, punt.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget (the trip's cause)", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache holds %d entries after a budget-failed run; a truncated result was cached", st.Entries)
	}

	// Same poisoning guard for the caller's own cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	s2 := punt.New(punt.WithEngine("test-late"), punt.WithCache(cache))
	if res, err := s2.Synthesize(ctx, punt.Fig1()); err == nil {
		t.Fatalf("late result under a cancelled context was returned: %v", res)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache holds %d entries after a cancelled run; a truncated result was cached", st.Entries)
	}
}

func TestDegradedResultNotCached(t *testing.T) {
	cache := punt.NewLRU(0)
	s := punt.New(
		punt.WithEngine(punt.Explicit),
		punt.WithMaxStates(500),
		punt.WithCache(cache),
		punt.WithFallback(punt.Fallback("segment", punt.WithEngine(punt.Unfolding))),
	)
	res, err := s.Synthesize(context.Background(), pipelineSpec())
	if err != nil || !res.Degraded() {
		t.Fatalf("want a degraded success, got res=%v err=%v", res, err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("cache holds %d entries; degraded results must not be cached", st.Entries)
	}
}

// corruptingCache wraps a real cache but hands back a truncated entry on
// every hit, as a faulty Cache implementation would.
type corruptingCache struct{ inner *punt.LRU }

func (c *corruptingCache) Get(key string) (*punt.Result, bool) {
	if _, ok := c.inner.Get(key); ok {
		return &punt.Result{}, true // a hit with no implementation
	}
	return nil, false
}

func (c *corruptingCache) Put(key string, res *punt.Result) { c.inner.Put(key, res) }

func TestCorruptCacheHitTreatedAsMiss(t *testing.T) {
	cache := &corruptingCache{inner: punt.NewLRU(0)}
	s := punt.New(punt.WithCache(cache))
	// First run populates the cache; second gets the corrupted hit.
	if _, err := s.Synthesize(context.Background(), punt.Fig1()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Impl == nil {
		t.Fatal("the corrupted cache entry was served to the caller")
	}
	if res.Stats.Cached {
		t.Error("Stats.Cached = true on a result re-synthesised past a corrupted entry")
	}
}

// Satellite: one slow Batch item exhausts its per-item deadline while the
// rest of the batch completes, and the summary says so.
func TestBatchPerItemDeadline(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	s := punt.New(punt.WithEngine(punt.Explicit), punt.WithDeadline(250*time.Millisecond))
	items := []punt.BatchItem{
		{Name: "fast-1", Spec: punt.Fig1()},
		{Name: "slow", Spec: pipelineSpec()},
		{Name: "fast-2", Spec: punt.Handshake()},
	}
	results, sum := s.Batch(context.Background(), items)
	if sum.Succeeded != 2 || sum.Failed != 1 {
		t.Fatalf("summary = %v, want 2 ok / 1 failed", sum)
	}
	if sum.BudgetExceeded != 1 {
		t.Errorf("BudgetExceeded = %d, want 1", sum.BudgetExceeded)
	}
	for _, r := range results {
		if r.Name == "slow" {
			if !errors.Is(r.Err, punt.ErrBudget) {
				t.Errorf("slow item err = %v, want ErrBudget", r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("item %s failed: %v", r.Name, r.Err)
		}
	}
	if !strings.Contains(sum.String(), "over budget") {
		t.Errorf("summary %q does not mention the over-budget item", sum.String())
	}
}

func TestBatchCountsDegradedItems(t *testing.T) {
	s := punt.New(
		punt.WithEngine(punt.Explicit),
		punt.WithMaxStates(500),
		punt.WithFallback(punt.Fallback("segment", punt.WithEngine(punt.Unfolding))),
	)
	items := []punt.BatchItem{
		{Name: "fits", Spec: punt.Fig1()},
		{Name: "degrades", Spec: pipelineSpec()},
	}
	results, sum := s.Batch(context.Background(), items)
	if sum.Failed != 0 {
		t.Fatalf("summary = %v, want no failures", sum)
	}
	if sum.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", sum.Degraded)
	}
	for _, r := range results {
		if r.Name == "degrades" && !r.Result.Degraded() {
			t.Error("the over-limit item was not served by the fallback ladder")
		}
	}
}
