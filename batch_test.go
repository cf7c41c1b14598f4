package punt_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"punt"
	"punt/internal/faultinject"
)

// TestSynthesizeCancellation aborts a large pipeline synthesis shortly after
// it starts: the PE-loop cancellation checks must surface the context error
// long before the run would complete on its own.
func TestSynthesizeCancellation(t *testing.T) {
	// Large enough that a full synthesis takes well over a second; the
	// cancelled run must return orders of magnitude faster.
	spec := punt.MullerPipelineWithSignals(220)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := punt.New().Synthesize(ctx, spec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var diag *punt.Diagnostic
	if !errors.As(err, &diag) || diag.Kind != punt.KindCanceled {
		t.Errorf("diagnostic = %+v", diag)
	}
	// Generous bound: the run is cancelled after 10ms, so even a heavily
	// loaded CI machine should be far below this.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation was not prompt: took %v", elapsed)
	}
}

// TestSynthesizePreCancelled: an already-dead context never starts the work.
func TestSynthesizePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic} {
		_, err := punt.New(punt.WithEngine(engine)).Synthesize(ctx, punt.MullerPipelineWithSignals(50))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", engine, err)
		}
	}
}

// TestUnfoldAndStateGraphCancellation covers the analysis entry points.
func TestUnfoldAndStateGraphCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := punt.Unfold(ctx, punt.MullerPipelineWithSignals(50)); !errors.Is(err, context.Canceled) {
		t.Errorf("Unfold: %v", err)
	}
	if _, err := punt.BuildStateGraph(ctx, punt.MullerPipeline(12)); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildStateGraph: %v", err)
	}
}

// TestBatchIsolatesFailures: one failing item must not poison the batch.
func TestBatchIsolatesFailures(t *testing.T) {
	nonsm, err := punt.LoadFile("testdata/nonsm.g")
	if err != nil {
		t.Fatal(err)
	}
	items := []punt.BatchItem{
		{Name: "fig1", Spec: punt.Fig1()},
		{Name: "bad", Spec: nonsm},
		{Name: "handshake", Spec: punt.Handshake()},
		{Name: "pipeline", Spec: punt.MullerPipeline(6)},
	}
	results, sum := punt.Batch(context.Background(), items, punt.WithWorkers(3))
	if len(results) != len(items) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Name != items[i].Name {
			t.Errorf("result %d out of order: %+v", i, r)
		}
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, punt.ErrNotSemiModular) {
		t.Errorf("bad item error = %v", results[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("%s failed: %v", results[i].Name, results[i].Err)
		}
		if results[i].Result == nil || results[i].Result.Literals() == 0 {
			t.Errorf("%s produced no implementation", results[i].Name)
		}
	}
	if sum.Items != 4 || sum.Succeeded != 3 || sum.Failed != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Literals == 0 || sum.Events == 0 {
		t.Errorf("summary aggregates missing: %+v", sum)
	}
}

// TestBatchSharedSpec synthesises the same *Spec value from many workers at
// once: a loaded Spec must be immutable, so this is race-free (the CI -race
// job enforces it).
func TestBatchSharedSpec(t *testing.T) {
	shared := punt.MullerPipeline(8)
	items := make([]punt.BatchItem, 16)
	for i := range items {
		items[i] = punt.BatchItem{Name: "shared", Spec: shared}
	}
	results, sum := punt.Batch(context.Background(), items, punt.WithWorkers(8))
	if sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, r := range results {
		if r.Result.Literals() != results[0].Result.Literals() {
			t.Errorf("non-deterministic result: %d vs %d", r.Result.Literals(), results[0].Result.Literals())
		}
	}
}

// TestBatchTable1 runs the paper's whole suite through the pool.
func TestBatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, sum := punt.Batch(context.Background(), punt.Table1())
	if sum.Failed != 0 {
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Name, r.Err)
			}
		}
	}
	if sum.Succeeded != len(results) || sum.Workers < 1 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestBatchCancellation: cancelling the batch context fails the remaining
// items with the context error but keeps the completed ones, and the worker
// pool winds down without leaking goroutines.
func TestBatchCancellation(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []punt.BatchItem{
		{Name: "a", Spec: punt.Fig1()},
		{Name: "b", Spec: punt.Handshake()},
	}
	results, sum := punt.Batch(ctx, items, punt.WithWorkers(1))
	if sum.Failed != len(items) {
		t.Fatalf("summary = %+v", sum)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v", r.Name, r.Err)
		}
	}
}

// TestBatchNilSpec: a malformed item fails alone.
func TestBatchNilSpec(t *testing.T) {
	results, sum := punt.Batch(context.Background(), []punt.BatchItem{
		{Name: "ok", Spec: punt.Fig1()},
		{Name: "nil"},
	})
	if sum.Succeeded != 1 || sum.Failed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if results[1].Err == nil {
		t.Error("nil spec must fail its item")
	}
}
