package punt

import (
	"context"

	"punt/internal/benchgen"
	"punt/internal/stg"
)

// Builtin specifications.  These expose the paper's worked examples and the
// scalable benchmark generators through the public API, so example programs
// and load drivers need no ".g" files on disk.

// Fig1 returns the worked example of the paper's Figure 1: the three-signal
// STG whose output b synthesises to the cover b = a + c.
func Fig1() *Spec {
	return mustWrap(benchgen.PaperFig1())
}

// Handshake returns a minimal two-signal req/ack handshake controller.
func Handshake() *Spec {
	return mustWrap(benchgen.Handshake())
}

// MullerPipeline returns the n-stage Muller pipeline control STG of the
// paper's Figure 6 scaling experiment.
func MullerPipeline(stages int) *Spec {
	return mustWrap(benchgen.MullerPipeline(stages))
}

// MullerPipelineWithSignals returns the Muller pipeline sized to the given
// signal count (the x-axis of Figure 6).
func MullerPipelineWithSignals(signals int) *Spec {
	return mustWrap(benchgen.MullerPipelineWithSignals(signals))
}

// CounterflowPipeline returns the 34-signal counterflow-pipeline controller
// (the circled point of Figure 6).
func CounterflowPipeline() *Spec {
	return mustWrap(benchgen.CounterflowPipeline())
}

// Table1 returns the benchmark suite of the paper's Table 1 as named batch
// items, ready for Batch.
func Table1() []BatchItem {
	entries := benchgen.Table1Suite()
	items := make([]BatchItem, 0, len(entries))
	for _, e := range entries {
		items = append(items, BatchItem{Name: e.Name, Spec: mustWrap(e.Build())})
	}
	return items
}

// mustWrap finalises a generated STG; the builtin generators always carry an
// explicit initial state, so wrapping cannot fail.
func mustWrap(g *stg.STG) *Spec {
	//puntlint:ignore ctxdiscipline the generators set the initial state, so wrapping builds no segment to cancel
	s, err := wrapSpec(context.Background(), g)
	if err != nil {
		panic(err)
	}
	return s
}
