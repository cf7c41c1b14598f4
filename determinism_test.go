package punt

import (
	"context"
	"testing"
)

// determinismSpecs is the satellite-d corpus: all Table 1 specs plus the
// pipeline-class and counterflow generators.
func determinismSpecs(t *testing.T) map[string]*Spec {
	t.Helper()
	specs := map[string]*Spec{
		"pipeline-12": MullerPipelineWithSignals(12),
		"pipeline-22": MullerPipelineWithSignals(22),
		"counterflow": CounterflowPipeline(),
	}
	for _, it := range Table1() {
		specs["table1-"+it.Name] = it.Spec
	}
	return specs
}

// TestWorkersDeterministic asserts end to end that every worker count
// produces byte-identical segments and byte-identical synthesized output for
// every spec class, so the width is a pure throughput knob.
func TestWorkersDeterministic(t *testing.T) {
	ctx := context.Background()
	seq := New(WithWorkers(1))
	widths := []int{2, 3, 5, 8}
	for name, spec := range determinismSpecs(t) {
		segSeq, err := Unfold(ctx, spec, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: sequential unfold: %v", name, err)
		}
		rs, err := seq.Synthesize(ctx, spec)
		if err != nil {
			t.Fatalf("%s: sequential synthesis: %v", name, err)
		}
		for _, w := range widths {
			segPar, err := Unfold(ctx, spec, WithWorkers(w))
			if err != nil {
				t.Fatalf("%s: unfold at %d workers: %v", name, w, err)
			}
			if segSeq.Dump() != segPar.Dump() {
				t.Errorf("%s: segment dump differs between WithWorkers(1) and WithWorkers(%d)", name, w)
			}

			rp, err := New(WithWorkers(w)).Synthesize(ctx, spec)
			if err != nil {
				t.Fatalf("%s: synthesis at %d workers: %v", name, w, err)
			}
			if rs.Eqn() != rp.Eqn() {
				t.Errorf("%s: Eqn output differs between 1 and %d workers", name, w)
			}
			if rs.Verilog() != rp.Verilog() {
				t.Errorf("%s: Verilog output differs between 1 and %d workers", name, w)
			}
			if rp.Stats.Workers != w {
				t.Errorf("%s: run must report Workers=%d, got %d", name, w, rp.Stats.Workers)
			}
		}
	}
}

// TestCacheKeyExcludesWorkers pins the cache-key contract the determinism
// guarantee makes sound: since output is byte-identical across worker
// counts, the content-addressed key must not vary with WithWorkers — a
// result synthesized at one width is served verbatim at any other.
func TestCacheKeyExcludesWorkers(t *testing.T) {
	spec := Fig1()
	k1 := New(WithWorkers(1)).CacheKey(spec)
	k8 := New(WithWorkers(8)).CacheKey(spec)
	if k1 != k8 {
		t.Fatalf("cache key varies with the worker count:\n%s\nvs\n%s", k1, k8)
	}

	// And the shared cache actually round-trips across worker counts.
	cache := NewLRU(8)
	ctx := context.Background()
	cold, err := New(WithCache(cache), WithWorkers(8)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(WithCache(cache), WithWorkers(1)).Synthesize(ctx, Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cached {
		t.Fatal("WithWorkers(1) run was not served from the WithWorkers(8) cache entry")
	}
	if warm.Eqn() != cold.Eqn() {
		t.Fatal("cached result differs from the cold run")
	}
}
