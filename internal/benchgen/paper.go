// Package benchgen provides the benchmark STGs used by the examples, tests
// and the experiment harness: the worked examples of the paper (Fig. 1 and
// Fig. 4), a library of small hand-written handshake controllers, scalable
// Muller-pipeline and counterflow-pipeline generators for the Figure 6
// experiment, and parameterised synthetic controllers standing in for the
// Table 1 benchmark suite, whose original descriptions are not
// redistributable (see Table1Suite).
package benchgen

import (
	"fmt"

	"punt/internal/bitvec"
	"punt/internal/petri"
	"punt/internal/stg"
)

// PaperFig1 builds the STG of Figure 1 of the paper: signals a, b, c with a
// free choice at p1 between a branch (driven by the environment) that raises
// a and a branch that raises c first.  Its state graph has 8 states and the
// on-set cover of the output signal b minimises to a + c (the worked example
// of Sections 2.2 and 4.1).  Signals a and c are inputs: the free choice
// between them is the environment's, so output persistency holds for b.
func PaperFig1() *stg.STG {
	g := stg.New("paper-fig1")
	a := g.AddSignal("a", stg.Input)
	b := g.AddSignal("b", stg.Output)
	c := g.AddSignal("c", stg.Input)

	p := make([]petri.PlaceID, 10)
	for i := 1; i <= 9; i++ {
		p[i] = g.AddPlace(fmt.Sprintf("p%d", i))
	}
	plusA := g.AddTransition(a, stg.Plus)   // p1 -> +a -> p2,p3
	plusB1 := g.AddTransition(b, stg.Plus)  // p4 -> +b -> p7,p8
	plusB2 := g.AddTransition(b, stg.Plus)  // p2 -> +b/2 -> p5
	plusC1 := g.AddTransition(c, stg.Plus)  // p1 -> +c -> p4
	plusC2 := g.AddTransition(c, stg.Plus)  // p3 -> +c/2 -> p6,p8
	minusA := g.AddTransition(a, stg.Minus) // p5,p6 -> -a -> p7
	minusB := g.AddTransition(b, stg.Minus) // p9 -> -b -> p1
	minusC := g.AddTransition(c, stg.Minus) // p7,p8 -> -c -> p9

	type pt struct {
		pl int
		tr petri.TransitionID
	}
	for _, arc := range []pt{
		{1, plusA}, {1, plusC1}, {2, plusB2}, {3, plusC2}, {4, plusB1},
		{5, minusA}, {6, minusA}, {7, minusC}, {8, minusC}, {9, minusB},
	} {
		g.AddArcPT(p[arc.pl], arc.tr)
	}
	type tp struct {
		tr petri.TransitionID
		pl int
	}
	for _, arc := range []tp{
		{plusA, 2}, {plusA, 3}, {plusB2, 5}, {plusC2, 6}, {plusC2, 8},
		{plusC1, 4}, {plusB1, 7}, {plusB1, 8}, {minusA, 7}, {minusC, 9}, {minusB, 1},
	} {
		g.AddArcTP(arc.tr, p[arc.pl])
	}
	g.MarkInitially(p[1])
	g.SetInitialState(bitvec.New(3)) // abc = 000
	return g
}

// PaperFig4 builds an STG in the spirit of Figure 4 of the paper: seven
// signals a..g where +a forks into a wide band of mutually concurrent
// activity (b, c, e, f in parallel with the d/g chain) before -a closes the
// cycle.  It is used to exercise the ER/MR cover approximation and the
// refinement procedure on a specification with substantial concurrency.
func PaperFig4() *stg.STG {
	b := stg.NewBuilder("paper-fig4")
	b.Inputs("a").Outputs("b", "c", "d", "e", "f", "g")
	// +a forks three concurrent branches: (b,e), (c,f) and (d,g).
	b.Arc("a+", "b+").Arc("b+", "e+")
	b.Arc("a+", "c+").Arc("c+", "f+")
	b.Arc("a+", "d+").Arc("d+", "g+")
	// All branches join at -a.
	b.Arc("e+", "a-").Arc("f+", "a-").Arc("g+", "a-")
	// Return-to-zero phase, again concurrent per branch.
	b.Arc("a-", "b-").Arc("b-", "e-")
	b.Arc("a-", "c-").Arc("c-", "f-")
	b.Arc("a-", "d-").Arc("d-", "g-")
	b.Arc("e-", "a+").Arc("f-", "a+").Arc("g-", "a+")
	b.MarkBetween("e-", "a+").MarkBetween("f-", "a+").MarkBetween("g-", "a+")
	b.InitialState("0000000")
	return b.MustBuild()
}

// Handshake builds the elementary four-phase handshake controller
// (req -> ack), the smallest useful STG.
func Handshake() *stg.STG {
	b := stg.NewBuilder("handshake")
	b.Inputs("req").Outputs("ack")
	b.Arc("req+", "ack+").Arc("ack+", "req-").Arc("req-", "ack-").Arc("ack-", "req+")
	b.MarkBetween("ack-", "req+")
	b.InitialState("00")
	return b.MustBuild()
}
