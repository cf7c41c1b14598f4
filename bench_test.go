package punt

// The benchmarks in this file regenerate the paper's evaluation:
//
//   - BenchmarkTable1PUNT          — the "PUNT ACG" columns of Table 1
//   - BenchmarkTable1SIS           — the explicit state-graph baseline column
//   - BenchmarkTable1Petrify       — the symbolic (BDD) baseline column
//   - BenchmarkFigure6PUNT/SIS/Petrify — the scaling series of Figure 6
//   - BenchmarkCounterflowPUNT     — the circled counterflow-pipeline point
//   - BenchmarkUnfoldOnly / BenchmarkExactMode — ablations of two design
//     choices: segment construction cost, and exact versus approximated
//     cover derivation
//   - BenchmarkDecompose           — monolithic versus compositional
//     (split, synthesize components, recombine) synthesis
//
// Run them all with:  go test -bench=. -benchmem
// go run ./cmd/benchtab -table1 (or -figure6) prints the Table 1 and Figure 6
// series as tables; puntbench (bash puntbench/run.sh) is the end-to-end
// benchmark and keeps the perf record.

import (
	"context"
	"fmt"
	"testing"

	"punt/internal/baseline"
	"punt/internal/benchgen"
	"punt/internal/core"
	"punt/internal/unfolding"
)

// table1Small selects the benchmarks whose explicit state graph is small
// enough for the baselines to process within the benchmark budget.
func table1Small() []benchgen.BenchmarkEntry {
	var out []benchgen.BenchmarkEntry
	for _, e := range benchgen.Table1Suite() {
		if e.Signals <= 14 {
			out = append(out, e)
		}
	}
	return out
}

func BenchmarkTable1PUNT(b *testing.B) {
	for _, entry := range benchgen.Table1Suite() {
		entry := entry
		b.Run(fmt.Sprintf("%s-%dsig", entry.Name, entry.Signals), func(b *testing.B) {
			g := entry.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.New(core.Options{}).Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1SIS(b *testing.B) {
	for _, entry := range table1Small() {
		entry := entry
		b.Run(fmt.Sprintf("%s-%dsig", entry.Name, entry.Signals), func(b *testing.B) {
			g := entry.Build()
			s := &baseline.ExplicitSynthesizer{MaxStates: 2000000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1Petrify(b *testing.B) {
	for _, entry := range table1Small() {
		entry := entry
		b.Run(fmt.Sprintf("%s-%dsig", entry.Name, entry.Signals), func(b *testing.B) {
			g := entry.Build()
			s := &baseline.SymbolicSynthesizer{MaxNodes: 4000000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// figure6Sizes is the signal-count sweep of Figure 6.  The baselines only run
// on the sizes they can finish; the larger sizes are exactly where the paper
// shows them choking.
var figure6Sizes = []int{5, 8, 12, 17, 22, 32, 42, 50}

func BenchmarkFigure6PUNT(b *testing.B) {
	for _, signals := range figure6Sizes {
		signals := signals
		b.Run(fmt.Sprintf("%dsig", signals), func(b *testing.B) {
			g := benchgen.MullerPipelineWithSignals(signals)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.New(core.Options{}).Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure6SIS(b *testing.B) {
	for _, signals := range figure6Sizes {
		if signals > 12 {
			continue // the explicit state graph is out of reach beyond this size
		}
		signals := signals
		b.Run(fmt.Sprintf("%dsig", signals), func(b *testing.B) {
			g := benchgen.MullerPipelineWithSignals(signals)
			s := &baseline.ExplicitSynthesizer{MaxStates: 2000000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure6Petrify(b *testing.B) {
	for _, signals := range figure6Sizes {
		if signals > 12 {
			continue // the BDD blows up beyond this size
		}
		signals := signals
		b.Run(fmt.Sprintf("%dsig", signals), func(b *testing.B) {
			g := benchgen.MullerPipelineWithSignals(signals)
			s := &baseline.SymbolicSynthesizer{MaxNodes: 8000000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Synthesize(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCounterflowPUNT(b *testing.B) {
	g := benchgen.CounterflowPipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.New(core.Options{}).Synthesize(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnfoldOnly isolates the cost of constructing the STG-unfolding
// segment (the "UnfTim" column) on the deepest pipeline of the sweep.
func BenchmarkUnfoldOnly(b *testing.B) {
	g := benchgen.MullerPipelineWithSignals(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unfolding.Build(context.Background(), g, unfolding.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactMode is the ablation of the paper's central design choice:
// deriving exact covers by slice enumeration instead of approximating them.
// Compare against BenchmarkApproximateMode on the same specification.
func BenchmarkExactMode(b *testing.B) {
	g := benchgen.MullerPipelineWithSignals(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.New(core.Options{Mode: core.Exact}).Synthesize(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproximateMode(b *testing.B) {
	g := benchgen.MullerPipelineWithSignals(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.New(core.Options{}).Synthesize(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadePipeline measures the full public-API path — Parse followed
// by New().Synthesize — on a mid-size pipeline, so the perf trajectory tracks
// the overhead of the facade itself next to the raw-core numbers above.
func BenchmarkFacadePipeline(b *testing.B) {
	text := MullerPipelineWithSignals(22).Text()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New().Synthesize(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchTable1 measures the worker-pool driver on the paper's suite.
func BenchmarkBatchTable1(b *testing.B) {
	items := Table1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, sum := New().Batch(context.Background(), items); sum.Failed != 0 {
			b.Fatalf("batch failed: %+v", sum)
		}
	}
}

// BenchmarkDecompose prices the compositional engine against the monolithic
// unfolding flow end to end.  Counterflow splits into two independent
// pipelines; pipeline-22 is indivisible, so its decompose case prices the
// fallthrough.  TestDecomposeCounterflow pins that both engines print the
// same equations and Verilog.
func BenchmarkDecompose(b *testing.B) {
	specs := []struct {
		name string
		spec *Spec
	}{
		{"counterflow", CounterflowPipeline()},
		{"pipeline-22", MullerPipelineWithSignals(22)},
	}
	for _, s := range specs {
		for _, engine := range []string{Unfolding, Decompose} {
			b.Run(s.name+"/"+engine, func(b *testing.B) {
				synth := New(WithEngine(engine))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := synth.Synthesize(context.Background(), s.spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
