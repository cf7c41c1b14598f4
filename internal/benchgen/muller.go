package benchgen

import (
	"fmt"

	"punt/internal/bitvec"
	"punt/internal/petri"
	"punt/internal/stg"
)

// MullerPipeline builds the STG of an n-stage Muller pipeline control circuit
// (the scalable example of the paper's Figure 6).  Signal c0 is the request
// of the left environment, c(n+1) the acknowledgement of the right
// environment and c1..cn the C-element outputs of the n stages.  Stage i
// rises when its left neighbour is high and its right neighbour is low, and
// falls in the dual situation:
//
//	c(i-1)+ -> ci+ <- c(i+1)-      c(i-1)- -> ci- <- c(i+1)+
//
// The state graph of the pipeline grows exponentially with n while the
// unfolding segment grows linearly, which is exactly the behaviour Figure 6
// demonstrates.
func MullerPipeline(stages int) *stg.STG {
	if stages < 1 {
		panic("benchgen: MullerPipeline needs at least one stage")
	}
	g := stg.New(fmt.Sprintf("muller-pipeline-%d", stages))
	addPipeline(g, "c", stages)
	g.SetInitialState(bitvec.New(g.NumSignals()))
	return g
}

// addPipeline adds an n-stage Muller pipeline whose signals are named
// <prefix>0 .. <prefix>(n+1) to the STG.
func addPipeline(g *stg.STG, prefix string, stages int) {
	n := stages
	sig := make([]int, n+2)
	for i := 0; i <= n+1; i++ {
		kind := stg.Output
		if i == 0 || i == n+1 {
			kind = stg.Input
		}
		sig[i] = g.AddSignal(fmt.Sprintf("%s%d", prefix, i), kind)
	}
	plus := make([]petri.TransitionID, n+2)
	minus := make([]petri.TransitionID, n+2)
	for i := 0; i <= n+1; i++ {
		plus[i] = g.AddTransition(sig[i], stg.Plus)
		minus[i] = g.AddTransition(sig[i], stg.Minus)
	}
	arc := func(from, to petri.TransitionID, marked bool) {
		p := g.AddArcTT(from, to)
		if marked {
			g.MarkInitially(p)
		}
	}
	// Pipeline stages 1..n.
	for i := 1; i <= n; i++ {
		arc(plus[i-1], plus[i], false)
		arc(minus[i+1], plus[i], true) // initially the right neighbour is low
		arc(minus[i-1], minus[i], false)
		arc(plus[i+1], minus[i], false)
	}
	// Left environment: toggles its request after the first stage acknowledges.
	arc(minus[1], plus[0], true)
	arc(plus[1], minus[0], false)
	// Right environment: acknowledges the last stage.
	arc(plus[n], plus[n+1], false)
	arc(minus[n], minus[n+1], false)
}

// MullerPipelineWithSignals builds the pipeline whose total signal count
// (stages plus the two environment signals) equals the given number; it is
// the x-axis of the Figure 6 experiment.
func MullerPipelineWithSignals(signals int) *stg.STG {
	if signals < 3 {
		panic("benchgen: a pipeline needs at least 3 signals")
	}
	return MullerPipeline(signals - 2)
}

// CounterflowPipeline builds the 34-signal stand-in for the counterflow
// pipeline controller of the paper's second experiment (the circled dot of
// Figure 6): a request pipeline and a result pipeline flowing in opposite
// directions, modelled as two 15-stage Muller pipelines operating
// concurrently in one specification.  Its state graph is the product of the
// two pipelines' state graphs — far beyond explicit enumeration — while the
// unfolding segment is just the two segments side by side.  The original
// controller's specification is not distributed with the paper; the stand-in
// keeps its signal count and the concurrency the experiment measures.
func CounterflowPipeline() *stg.STG {
	g := stg.New("counterflow-pipeline")
	addPipeline(g, "f", 15) // forward (request) flow: f0..f16
	addPipeline(g, "b", 15) // backward (result) flow: b0..b16
	g.SetInitialState(bitvec.New(g.NumSignals()))
	return g
}

// Product builds the counterflow topology at an arbitrary size: two n-stage
// Muller pipelines operating concurrently in one specification.  Small sizes
// keep the product state space within reach of the explicit oracle, which is
// what differential tests of compositional synthesis need — the full
// CounterflowPipeline is far beyond it by design.
func Product(stages int) *stg.STG {
	g := stg.New(fmt.Sprintf("product-%d", stages))
	addPipeline(g, "f", stages)
	addPipeline(g, "b", stages)
	g.SetInitialState(bitvec.New(g.NumSignals()))
	return g
}
