package unfolding

import (
	"context"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
)

// BenchmarkUnfoldIncremental measures segment construction alone — the hot
// path of the whole system — on specifications of increasing size.  The
// larger pipelines are where the incremental state engine and the word-level
// co-relation pay off; puntbench's segments workload tracks the same work end
// to end.
func BenchmarkUnfoldIncremental(b *testing.B) {
	cases := []struct {
		name string
		mk   func() *stg.STG
	}{
		{"pipeline-12", func() *stg.STG { return benchgen.MullerPipelineWithSignals(12) }},
		{"pipeline-22", func() *stg.STG { return benchgen.MullerPipelineWithSignals(22) }},
		{"pipeline-34", func() *stg.STG { return benchgen.MullerPipelineWithSignals(34) }},
		{"pipeline-50", func() *stg.STG { return benchgen.MullerPipelineWithSignals(50) }},
		{"counterflow", benchgen.CounterflowPipeline},
		{"synthetic-24", func() *stg.STG { return benchgen.SyntheticController("synthetic-24", 24, 7) }},
		{"synthetic-48", func() *stg.STG { return benchgen.SyntheticController("synthetic-48", 48, 7) }},
		{"choice-16", func() *stg.STG { return benchgen.ChoiceController("choice-16", 16, 11) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			g := c.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(context.Background(), g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnfoldDebugCheck measures the same construction with the
// full-replay cross-validation enabled: the gap between this and
// BenchmarkUnfoldIncremental is the cost the incremental engine removed.
func BenchmarkUnfoldDebugCheck(b *testing.B) {
	g := benchgen.MullerPipelineWithSignals(22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), g, Options{DebugCheck: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Unfold runs segment construction over the whole Table 1
// suite in one iteration, the workload the paper's UnfTim column measures.
func BenchmarkTable1Unfold(b *testing.B) {
	entries := benchgen.Table1Suite()
	specs := make([]*stg.STG, len(entries))
	for i, e := range entries {
		specs[i] = e.Build()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range specs {
			if _, err := Build(context.Background(), g, Options{}); err != nil {
				b.Fatalf("%s: %v", entries[j].Name, err)
			}
		}
	}
}

var sinkCount int

// BenchmarkCausality measures building the causality index and every
// event's conflict set on the two largest Figure 6 specs: the per-segment
// set-up that cover derivation pays once per synthesis.
func BenchmarkCausality(b *testing.B) {
	cases := []struct {
		name string
		g    *stg.STG
	}{
		{"pipeline-50", benchgen.MullerPipelineWithSignals(50)},
		{"counterflow", benchgen.CounterflowPipeline()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			u, err := Build(context.Background(), c.g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cz := u.Causality()
				n := 0
				for _, e := range u.Events {
					n += cz.Conflict(e).Count()
				}
				sinkCount = n
			}
		})
	}
}
