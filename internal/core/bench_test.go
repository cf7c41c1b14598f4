package core

import (
	"context"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// BenchmarkCoversFor times cover derivation alone — the causality index and
// one deriver, then slicing, approximation and refinement of every output
// signal, as Synthesize does it — over a segment built once outside the
// timer, so the unfolding cost is excluded.  pipeline-50 and counterflow are
// the two largest specs of the Figure 6 series, where this phase dominates
// synthesis; mp-forward-pkt is the Table 1 spec that needs the most
// refinement (250 terms), so refine and findInterference are timed too.
func BenchmarkCoversFor(b *testing.B) {
	specs := []struct {
		name string
		g    *stg.STG
	}{
		{"pipeline-50", benchgen.MullerPipelineWithSignals(50)},
		{"counterflow", benchgen.CounterflowPipeline()},
		{"mp-forward-pkt", table1Spec(b, "mp-forward-pkt")},
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
				d := newDeriver(u, u.Causality())
				for _, sig := range outputs {
					if _, _, _, _, _, err := s.coversFor(d, sig); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// table1Spec builds the named spec of the Table 1 suite.
func table1Spec(tb testing.TB, name string) *stg.STG {
	for _, e := range benchgen.Table1Suite() {
		if e.Name == name {
			return e.Build()
		}
	}
	tb.Fatalf("no Table 1 spec %q", name)
	return nil
}
