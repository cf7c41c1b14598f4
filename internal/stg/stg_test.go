package stg

import (
	"fmt"
	"strings"
	"testing"

	"punt/internal/bitvec"
	"punt/internal/petri"
)

// paperFig1 builds the STG of Figure 1 of the paper: three signals a, b, c
// with a free choice at p1 between the +a branch and the +c branch.
//
//	p1 -> +a -> p2,p3 ; p2 -> +b/2 -> p5 ; p3 -> +c/2 -> p6,p8
//	p5,p6 -> -a -> p7 ; p7,p8 -> -c -> p9 ; p9 -> -b -> p1
//	p1 -> +c -> p4 ; p4 -> +b -> p7,p8
func paperFig1(t *testing.T) *STG {
	t.Helper()
	g := New("paper-fig1")
	a := g.AddSignal("a", Input)
	b := g.AddSignal("b", Output)
	c := g.AddSignal("c", Output)

	p := make([]petri.PlaceID, 10)
	for i := 1; i <= 9; i++ {
		p[i] = g.AddPlace(fmt.Sprintf("p%d", i))
	}
	plusA := g.AddTransition(a, Plus)
	plusB1 := g.AddTransition(b, Plus)  // choice branch: p4 -> +b -> p7,p8
	plusB2 := g.AddTransition(b, Plus)  // concurrent branch: p2 -> +b/2 -> p5
	plusC1 := g.AddTransition(c, Plus)  // choice branch: p1 -> +c -> p4
	plusC2 := g.AddTransition(c, Plus)  // concurrent branch: p3 -> +c/2 -> p6,p8
	minusA := g.AddTransition(a, Minus) // p5,p6 -> -a -> p7
	minusB := g.AddTransition(b, Minus) // p9 -> -b -> p1
	minusC := g.AddTransition(c, Minus) // p7,p8 -> -c -> p9

	arcsPT := []struct {
		pl int
		tr petri.TransitionID
	}{
		{1, plusA}, {1, plusC1}, {2, plusB2}, {3, plusC2}, {4, plusB1},
		{5, minusA}, {6, minusA}, {7, minusC}, {8, minusC}, {9, minusB},
	}
	for _, a := range arcsPT {
		g.AddArcPT(p[a.pl], a.tr)
	}
	arcsTP := []struct {
		tr petri.TransitionID
		pl int
	}{
		{plusA, 2}, {plusA, 3}, {plusB2, 5}, {plusC2, 6}, {plusC2, 8},
		{plusC1, 4}, {plusB1, 7}, {plusB1, 8}, {minusA, 7}, {minusC, 9}, {minusB, 1},
	}
	for _, a := range arcsTP {
		g.AddArcTP(a.tr, p[a.pl])
	}
	g.MarkInitially(p[1])
	g.SetInitialState(bitvec.New(3))
	if err := g.Validate(); err != nil {
		t.Fatalf("fig1 STG invalid: %v", err)
	}
	return g
}

func TestSignalDeclaration(t *testing.T) {
	g := New("sig")
	a := g.AddSignal("a", Input)
	b := g.AddSignal("b", Output)
	c := g.AddSignal("c", Internal)
	if g.NumSignals() != 3 {
		t.Fatalf("NumSignals = %d", g.NumSignals())
	}
	if idx, ok := g.SignalIndex("b"); !ok || idx != b {
		t.Fatal("SignalIndex failed")
	}
	outs := g.OutputSignals()
	if len(outs) != 2 || outs[0] != b || outs[1] != c {
		t.Fatalf("OutputSignals = %v", outs)
	}
	ins := g.InputSignals()
	if len(ins) != 1 || ins[0] != a {
		t.Fatalf("InputSignals = %v", ins)
	}
	names := g.SignalNames()
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("SignalNames = %v", names)
	}
}

func TestDuplicateSignalPanics(t *testing.T) {
	g := New("dup")
	g.AddSignal("a", Input)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddSignal("a", Output)
}

func TestTransitionInstanceNumbering(t *testing.T) {
	g := New("inst")
	a := g.AddSignal("a", Output)
	t1 := g.AddTransition(a, Plus)
	t2 := g.AddTransition(a, Plus)
	t3 := g.AddTransition(a, Minus)
	if g.TransitionString(t1) != "a+" {
		t.Fatalf("first instance = %q", g.TransitionString(t1))
	}
	if g.TransitionString(t2) != "a+/2" {
		t.Fatalf("second instance = %q", g.TransitionString(t2))
	}
	if g.TransitionString(t3) != "a-" {
		t.Fatalf("minus instance = %q", g.TransitionString(t3))
	}
	if len(g.TransitionsOf(a)) != 3 {
		t.Fatal("TransitionsOf should report all three")
	}
}

func TestPaperFig1Structure(t *testing.T) {
	g := paperFig1(t)
	if g.Net().NumPlaces() != 9 || g.Net().NumTransitions() != 8 {
		t.Fatalf("places=%d transitions=%d", g.Net().NumPlaces(), g.Net().NumTransitions())
	}
	if g.Net().IsMarkedGraph() {
		t.Fatal("fig1 has a choice place, not a marked graph")
	}
	if !g.Net().IsFreeChoice() {
		t.Fatal("fig1 is free choice")
	}
	safe, err := g.Net().IsSafe(0)
	if err != nil || !safe {
		t.Fatalf("fig1 must be safe: %v %v", safe, err)
	}
	reach, err := g.Net().Reachability(petri.ReachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reach.NumStates() != 8 {
		t.Fatalf("fig1 SG has %d states, want 8", reach.NumStates())
	}
}

func TestValidateRejectsDanglingTransition(t *testing.T) {
	g := New("bad")
	a := g.AddSignal("a", Output)
	g.AddTransition(a, Plus) // no arcs
	if err := g.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestInitialStateWidthMismatchPanics(t *testing.T) {
	g := New("width")
	g.AddSignal("a", Output)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.SetInitialState(bitvec.New(2))
}
