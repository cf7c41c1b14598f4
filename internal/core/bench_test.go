package core

import (
	"context"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// BenchmarkCoversFor times cover derivation alone — the causality index,
// then slicing, approximation and refinement of every output signal — over a
// segment built once outside the timer, so the unfolding cost is excluded.
// These are the two largest specs of the Figure 6 series, where this phase
// dominates synthesis.
func BenchmarkCoversFor(b *testing.B) {
	specs := []struct {
		name string
		g    *stg.STG
	}{
		{"pipeline-50", benchgen.MullerPipelineWithSignals(50)},
		{"counterflow", benchgen.CounterflowPipeline()},
	}
	for _, spec := range specs {
		b.Run(spec.name, func(b *testing.B) {
			u, err := unfolding.Build(context.Background(), spec.g, unfolding.Options{})
			if err != nil {
				b.Fatal(err)
			}
			s := New(Options{})
			outputs := spec.g.OutputSignals()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cz := u.Causality()
				for _, sig := range outputs {
					if _, _, _, _, _, err := s.coversFor(u, cz, sig); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
