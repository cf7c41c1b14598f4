package punt_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"punt"
	"punt/internal/faultinject"
)

// The chaos sweep: hundreds of seeded, schedule-driven fault-injection runs
// over every entry point — plain Synthesize, the portfolio scheduler, Batch —
// with faults fired inside the engines' hot loops, at the facade admission
// point and in the cache.  The invariants under any schedule:
//
//   - no run deadlocks (each is bounded by a watchdog),
//   - no goroutines leak across the sweep,
//   - every failure is a structured *Diagnostic (never an unrecovered panic),
//   - every success carries a real implementation,
//   - the shared cache never serves a faulted or truncated result.

// chaosRuns is the number of seeded schedules the sweep drives; the CI chaos
// job runs the full sweep under the race detector.
const chaosRuns = 240

// chaosCache shares one LRU across the whole sweep and corrupts hits when the
// current schedule says so, simulating a cache whose entries rot.
type chaosCache struct {
	inner *punt.LRU
	mu    sync.Mutex
	inj   *faultinject.Injector
}

func (c *chaosCache) setInjector(i *faultinject.Injector) {
	c.mu.Lock()
	c.inj = i
	c.mu.Unlock()
}

func (c *chaosCache) Get(key string) (*punt.Result, bool) {
	res, ok := c.inner.Get(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	inj := c.inj
	c.mu.Unlock()
	if inj.Corrupt(faultinject.OpCacheGet) {
		return &punt.Result{}, true // a hit whose implementation rotted away
	}
	return res, true
}

func (c *chaosCache) Put(key string, res *punt.Result) { c.inner.Put(key, res) }

func TestChaosSweep(t *testing.T) {
	defer faultinject.LeakCheck(t)()

	specs := []*punt.Spec{punt.Fig1(), punt.Handshake(), punt.MullerPipeline(4)}
	cache := &chaosCache{inner: punt.NewLRU(0)}
	engines := []string{punt.Unfolding, punt.Explicit, punt.Symbolic}

	for seed := 0; seed < chaosRuns; seed++ {
		inj := faultinject.Schedule(int64(seed), faultinject.AllOps, 1+seed%3, 2)
		cache.setInjector(inj)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		ctx = faultinject.With(ctx, inj)

		// Each run is driven from its own goroutine under a deadlock
		// watchdog: a schedule that wedged the pipeline would otherwise hang
		// the whole suite silently.
		done := make(chan struct{})
		go func() {
			defer close(done)
			spec := specs[seed%len(specs)]
			switch seed % 4 {
			case 0, 1: // plain Synthesize, every builtin engine + ladder
				s := punt.New(
					punt.WithEngine(engines[seed%len(engines)]),
					punt.WithCache(cache),
					punt.WithFallback(punt.Fallback("retry", punt.WithEngine(punt.Unfolding))),
				)
				res, err := s.Synthesize(ctx, spec)
				checkChaosOutcome(t, seed, res, err)
			case 2: // portfolio race
				s := punt.New(punt.WithEngine(punt.Portfolio), punt.WithCache(cache))
				res, err := s.Synthesize(ctx, spec)
				checkChaosOutcome(t, seed, res, err)
			default: // Batch over all specs
				items := make([]punt.BatchItem, len(specs))
				for i, sp := range specs {
					items[i] = punt.BatchItem{Name: fmt.Sprintf("item-%d", i), Spec: sp}
				}
				s := punt.New(punt.WithCache(cache), punt.WithWorkers(2))
				results, sum := s.Batch(ctx, items)
				if sum.Succeeded+sum.Failed != len(items) {
					t.Errorf("seed %d: summary %v does not account for every item", seed, sum)
				}
				for _, r := range results {
					checkChaosOutcome(t, seed, r.Result, r.Err)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("seed %d: run deadlocked (fired: %v)\n%s", seed, inj.Fired(), buf[:runtime.Stack(buf, true)])
		}
		cancel()
	}

	// The sweep is over: the shared cache must still be clean.  A clean run
	// of every spec/engine combination must succeed with a real
	// implementation — a poisoned or truncated cache entry would surface
	// right here.
	cache.setInjector(nil)
	for _, spec := range specs {
		for _, e := range engines {
			res, err := punt.New(punt.WithEngine(e), punt.WithCache(cache)).Synthesize(context.Background(), spec)
			if err != nil {
				t.Fatalf("clean run of %s on %v after the sweep failed: %v", spec.Name(), e, err)
			}
			if res.Impl == nil || res.Literals() == 0 {
				t.Fatalf("clean run of %s on %v served an empty result: the sweep poisoned the cache", spec.Name(), e)
			}
		}
	}
}

// checkChaosOutcome asserts the chaos invariants of one outcome: a success
// has an implementation, a failure is a structured diagnostic.
func checkChaosOutcome(t *testing.T, seed int, res *punt.Result, err error) {
	t.Helper()
	if err == nil {
		if res == nil || res.Impl == nil {
			t.Errorf("seed %d: success without an implementation", seed)
		}
		return
	}
	if res != nil {
		t.Errorf("seed %d: both a result and an error returned", seed)
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Errorf("seed %d: unstructured error %T: %v", seed, err, err)
	}
}

// TestChaosPanicSchedules drives every engine op with a forced-panic rule:
// each run must surface a KindPanic diagnostic with the injected value —
// never crash, never wedge.
func TestChaosPanicSchedules(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	engineFor := map[string]string{
		faultinject.OpUnfoldPop:        punt.Unfolding,
		faultinject.OpCoreCovers:       punt.Unfolding,
		faultinject.OpStategraphExpand: punt.Explicit,
		faultinject.OpExplicitCovers:   punt.Explicit,
		faultinject.OpSymbolicFixpoint: punt.Symbolic,
	}
	for _, op := range faultinject.EngineOps {
		op := op
		t.Run(op, func(t *testing.T) {
			inj := faultinject.New(faultinject.Rule{Op: op, AfterN: 0, Act: faultinject.ActPanic})
			ctx := faultinject.With(context.Background(), inj)
			_, err := punt.New(punt.WithEngine(engineFor[op])).Synthesize(ctx, punt.Fig1())
			if err == nil {
				// The op never fired for this spec/engine combination (e.g. a
				// tiny segment): that is a schedule miss, not a failure.
				if fired := inj.Fired(); len(fired) > 0 {
					t.Fatalf("injected panic at %v yet synthesis succeeded", fired)
				}
				t.Skipf("op %s not reached for fig1", op)
			}
			var d *punt.Diagnostic
			if !errors.As(err, &d) {
				t.Fatalf("unstructured error %T: %v", err, err)
			}
			if d.Kind != punt.KindPanic {
				t.Errorf("Kind = %v, want KindPanic", d.Kind)
			}
			var pe *punt.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a wrapped *PanicError", err)
			}
			if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
				t.Errorf("recovered value = %#v, want the injected panic", pe.Value)
			}
		})
	}
}

// TestChaosCancellationSchedules fires a one-shot cancellation at increasing
// depths of the unfolding PE loop: every depth must yield a structured
// diagnostic and a goroutine-clean exit.
func TestChaosCancellationSchedules(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	spec := punt.MullerPipelineWithSignals(40)
	fired := 0
	for depth := 0; depth < 8; depth++ {
		inj := faultinject.New(faultinject.Rule{Op: faultinject.OpUnfoldPop, AfterN: int64(depth), Act: faultinject.ActCancel})
		ctx := faultinject.With(context.Background(), inj)
		_, err := punt.New().Synthesize(ctx, spec)
		if err == nil {
			if len(inj.Fired()) > 0 {
				t.Fatalf("depth %d: injected cancellation fired yet synthesis succeeded", depth)
			}
			// The segment ran out of checkpoints before this depth: the
			// sweep is over.
			break
		}
		fired++
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("depth %d: err = %v, want the injected fault", depth, err)
		}
		var d *punt.Diagnostic
		if !errors.As(err, &d) {
			t.Errorf("depth %d: unstructured error %T", depth, err)
		}
	}
	if fired < 2 {
		t.Fatalf("only %d cancellation depths were reachable; the spec is too small to exercise the loop", fired)
	}
}

// TestChaosParallelShardSchedules drives the sharded possible-extension pool
// through the facade: with WithWorkers(4), injected cancellations at
// increasing shard depths and an injected mid-shard panic must surface as
// structured diagnostics — never a deadlocked round, never a leaked worker
// (the LeakCheck would catch a pool that failed to quiesce).
func TestChaosParallelShardSchedules(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	spec := punt.MullerPipelineWithSignals(24)

	fired := 0
	for depth := 0; depth < 8; depth++ {
		inj := faultinject.New(faultinject.Rule{Op: faultinject.OpUnfoldShard, AfterN: int64(depth * 5), Act: faultinject.ActCancel})
		ctx := faultinject.With(context.Background(), inj)
		_, err := punt.New(punt.WithWorkers(4)).Synthesize(ctx, spec)
		if err == nil {
			if len(inj.Fired()) > 0 {
				t.Fatalf("depth %d: injected cancellation fired yet synthesis succeeded", depth)
			}
			break
		}
		fired++
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("depth %d: err = %v, want the injected fault", depth, err)
		}
		var d *punt.Diagnostic
		if !errors.As(err, &d) {
			t.Errorf("depth %d: unstructured error %T", depth, err)
		}
	}
	if fired < 2 {
		t.Fatalf("only %d shard-cancellation depths were reachable", fired)
	}

	// A worker that panics mid-shard: the pool must re-raise on the build
	// goroutine, where the backend recovery turns it into a KindPanic
	// diagnostic carrying the injected value.
	inj := faultinject.New(faultinject.Rule{Op: faultinject.OpUnfoldShard, AfterN: 9, Act: faultinject.ActPanic})
	ctx := faultinject.With(context.Background(), inj)
	_, err := punt.New(punt.WithWorkers(4)).Synthesize(ctx, spec)
	if err == nil {
		t.Fatal("injected mid-shard panic yet synthesis succeeded")
	}
	var d *punt.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("unstructured error %T: %v", err, err)
	}
	if d.Kind != punt.KindPanic {
		t.Errorf("Kind = %v, want KindPanic", d.Kind)
	}
	var pe *punt.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
		t.Errorf("recovered value = %#v, want the injected panic", pe.Value)
	}
}
