package unfolding

import (
	"context"
	"errors"
	"slices"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/bitvec"
	"punt/internal/stg"
)

func build(t *testing.T, g *stg.STG) *Unfolding {
	t.Helper()
	u, err := Build(context.Background(), g, Options{})
	if err != nil {
		t.Fatalf("Build(context.Background(), %s): %v", g.Name(), err)
	}
	return u
}

func TestFig1Unfolding(t *testing.T) {
	g := benchgen.PaperFig1()
	u := build(t, g)
	a, _ := g.SignalIndex("a")
	b, _ := g.SignalIndex("b")
	c, _ := g.SignalIndex("c")

	// The segment of Fig. 2 contains two instances of +b and +c (one per
	// branch of the choice), one instance of +a, -a, -b, -c, plus the cut-off
	// instance(s) that close the cycle back to the initial state.
	if got := len(u.EventsOfEdge(b, stg.Plus)); got != 2 {
		t.Fatalf("+b instances = %d, want 2", got)
	}
	if got := len(u.EventsOfEdge(c, stg.Plus)); got != 2 {
		t.Fatalf("+c instances = %d, want 2", got)
	}
	if got := len(u.EventsOfEdge(a, stg.Plus)); got != 1 {
		t.Fatalf("+a instances = %d, want 1", got)
	}
	if u.NumCutoffs() == 0 {
		t.Fatal("the segment must contain at least one cut-off event closing the cycle")
	}
	if u.NumEvents() > 12 {
		t.Fatalf("segment unexpectedly large: %d events", u.NumEvents())
	}
	if s := u.String(); s == "" {
		t.Fatal("String must describe the segment")
	}
	if d := u.Dump(); d == "" {
		t.Fatal("Dump must render the segment")
	}
}

func TestCausalityAndConcurrencyFig4(t *testing.T) {
	g := benchgen.PaperFig4()
	u := build(t, g)
	ai, _ := g.SignalIndex("a")
	bi, _ := g.SignalIndex("b")
	ci, _ := g.SignalIndex("c")
	plusA := u.EventsOfEdge(ai, stg.Plus)[0]
	plusB := u.EventsOfEdge(bi, stg.Plus)[0]
	plusC := u.EventsOfEdge(ci, stg.Plus)[0]
	minusA := u.EventsOfEdge(ai, stg.Minus)[0]

	if !u.Before(plusA, plusB) || !u.Before(plusA, minusA) {
		t.Fatal("+a precedes +b and -a")
	}
	if u.Before(plusB, plusC) || u.Before(plusC, plusB) {
		t.Fatal("+b and +c are not ordered")
	}
	cz := u.Causality()
	if !cz.Future(plusA).Get(plusB.ID) || !cz.Future(plusA).Get(minusA.ID) {
		t.Fatal("+b and -a are in the future of +a")
	}
	if !concurrentEvents(cz, plusB, plusC) {
		t.Fatal("+b and +c are concurrent")
	}
	if concurrentEvents(cz, plusA, plusB) {
		t.Fatal("+a and +b are not concurrent (they are ordered)")
	}
	for _, e := range u.Events {
		if cz.Conflict(e).Count() != 0 {
			t.Fatalf("no conflict in a marked graph, but %s has one", u.EventName(e))
		}
	}
	// next(+a) is -a; first(a) is +a.
	next := cz.Next(plusA, ai)
	if len(next) != 1 || next[0].label.Dir != stg.Minus {
		t.Fatalf("next(+a) = %v", next)
	}
	first := cz.Next(u.Root, ai)
	if len(first) != 1 || first[0] != plusA {
		t.Fatalf("first(a) should be the +a instance")
	}
}

func TestConflictFig1(t *testing.T) {
	g := benchgen.PaperFig1()
	u := build(t, g)
	ai, _ := g.SignalIndex("a")
	ci, _ := g.SignalIndex("c")
	plusA := u.EventsOfEdge(ai, stg.Plus)[0]
	// The +c instance consuming p1 is in conflict with +a; the other +c
	// instance is causally after +a.
	var choiceC, chainC *Event
	for _, e := range u.EventsOfEdge(ci, stg.Plus) {
		if u.Before(plusA, e) {
			chainC = e
		} else {
			choiceC = e
		}
	}
	if choiceC == nil || chainC == nil {
		t.Fatal("expected one +c instance per branch")
	}
	cz := u.Causality()
	if !cz.Conflict(plusA).Get(choiceC.ID) || !cz.Conflict(choiceC).Get(plusA.ID) {
		t.Fatal("+a and the choice-branch +c must be in conflict")
	}
	if concurrentEvents(cz, plusA, choiceC) {
		t.Fatal("conflicting events are not concurrent")
	}
	if cz.Conflict(plusA).Get(chainC.ID) {
		t.Fatal("+a and its causal successor +c are not in conflict")
	}
}

// concurrentEvents reports whether two events are concurrent: neither is in
// the other's future and they are not in conflict.
func concurrentEvents(cz *Causality, e, f *Event) bool {
	return !cz.Future(e).Get(f.ID) && !cz.Future(f).Get(e.ID) && !cz.Conflict(e).Get(f.ID)
}

func TestMinCutsAndParentCode(t *testing.T) {
	g := benchgen.PaperFig1()
	u := build(t, g)
	bi, _ := g.SignalIndex("b")
	// Find the +b instance on the choice branch: its minimal excitation cut is
	// (p4) with code 001 and its minimal stable cut is (p7,p8) with code 011.
	for _, e := range u.EventsOfEdge(bi, stg.Plus) {
		if e.Code.String() == "011" {
			if got := u.DescribeCut(u.MinExcitationCut(e)); got != "(p4)" {
				t.Fatalf("min excitation cut = %s, want (p4)", got)
			}
			if got := u.DescribeCut(u.MinStableCut(e)); got != "(p7,p8)" {
				t.Fatalf("min stable cut = %s, want (p7,p8)", got)
			}
			if got := u.ParentCode(e).String(); got != "001" {
				t.Fatalf("parent code = %s, want 001", got)
			}
		}
	}
}

func TestSemiModularityChecks(t *testing.T) {
	// Fig. 1: the only conflict is between two input signals: no violations.
	u := build(t, benchgen.PaperFig1())
	if v := u.CheckSemiModularity(); len(v) != 0 {
		t.Fatalf("fig1 should be semi-modular, got %v", v)
	}
	// An output in direct conflict with an input is a violation.
	g := stg.New("nonpersistent")
	in := g.AddSignal("in", stg.Input)
	out := g.AddSignal("out", stg.Output)
	p0 := g.AddPlace("p0")
	p1 := g.AddPlace("p1")
	p2 := g.AddPlace("p2")
	tOut := g.AddTransition(out, stg.Plus)
	tIn := g.AddTransition(in, stg.Plus)
	tOutM := g.AddTransition(out, stg.Minus)
	tInM := g.AddTransition(in, stg.Minus)
	g.AddArcPT(p0, tOut)
	g.AddArcPT(p0, tIn)
	g.AddArcTP(tOut, p1)
	g.AddArcTP(tIn, p2)
	g.AddArcPT(p1, tOutM)
	g.AddArcPT(p2, tInM)
	g.AddArcTP(tOutM, p0)
	g.AddArcTP(tInM, p0)
	g.MarkInitially(p0)
	u2 := build(t, g)
	if v := u2.CheckSemiModularity(); len(v) == 0 {
		t.Fatal("expected a semi-modularity violation")
	}
}

func TestStatistics(t *testing.T) {
	u := build(t, benchgen.Handshake())
	s := u.Statistics()
	if s.Events != u.NumEvents() || s.Conditions != u.NumConditions() || s.Cutoffs != u.NumCutoffs() {
		t.Fatal("statistics disagree with accessors")
	}
	if s.String() == "" {
		t.Fatal("Stats.String empty")
	}
	// A four-phase handshake unfolds into its four edges plus one cut-off
	// cycle closer, give or take the cut-off instance itself.
	if s.Events < 4 || s.Events > 6 {
		t.Fatalf("handshake unfolding has %d events", s.Events)
	}
}

func TestInconsistentSpecificationRejected(t *testing.T) {
	b := stg.NewBuilder("inconsistent")
	b.Outputs("x", "y")
	b.Arc("x+", "y+").Arc("y+", "x+/2").Arc("x+/2", "x-").Arc("x-", "y-").Arc("y-", "x+").MarkBetween("y-", "x+")
	b.InitialState("00")
	g := b.MustBuild()
	_, err := Build(context.Background(), g, Options{})
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("expected InconsistencyError, got %v", err)
	}
}

func TestUnsafeNetRejected(t *testing.T) {
	// A dummy transition that reproduces its input place and accumulates
	// tokens in a second place: p1 becomes unbounded.
	g := stg.New("unsafe")
	p0 := g.AddPlace("p0")
	p1 := g.AddPlace("p1")
	d := g.AddDummyTransition("d")
	g.AddArcPT(p0, d)
	g.AddArcTP(d, p0)
	g.AddArcTP(d, p1)
	g.MarkInitially(p0)
	g.SetInitialState(bitvec.New(0))
	_, err := Build(context.Background(), g, Options{})
	if !errors.Is(err, ErrNotSafe) {
		t.Fatalf("expected ErrNotSafe, got %v", err)
	}
}

func TestInitiallyUnsafeMarkingRejected(t *testing.T) {
	g := stg.New("unsafe-initial")
	p0 := g.AddPlace("p0")
	d := g.AddDummyTransition("d")
	g.AddArcPT(p0, d)
	g.AddArcTP(d, p0)
	g.MarkInitially(p0)
	g.MarkInitially(p0) // two tokens on p0
	g.SetInitialState(bitvec.New(0))
	_, err := Build(context.Background(), g, Options{})
	if !errors.Is(err, ErrNotSafe) {
		t.Fatalf("expected ErrNotSafe, got %v", err)
	}
}

func TestEventLimit(t *testing.T) {
	g := benchgen.PaperFig4()
	_, err := Build(context.Background(), g, Options{MaxEvents: 3})
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("expected ErrEventLimit, got %v", err)
	}
}

// TestEventsOfSignalIndex pins the per-signal index built during
// construction to a linear scan of the segment, checks that appending to a
// result cannot write into the index, and that a lookup does not allocate.
func TestEventsOfSignalIndex(t *testing.T) {
	var specs []*stg.STG
	for _, e := range benchgen.Table1Suite() {
		specs = append(specs, e.Build())
	}
	specs = append(specs, benchgen.MullerPipelineWithSignals(50))
	for _, g := range specs {
		u := build(t, g)
		for sig := 0; sig < g.NumSignals(); sig++ {
			var want []*Event
			for _, e := range u.Events {
				if l := u.Label(e); !e.IsRoot && !l.IsDummy && l.Signal == sig {
					want = append(want, e)
				}
			}
			got := u.EventsOfSignal(sig)
			if !slices.Equal(got, want) {
				t.Fatalf("%s signal %d: EventsOfSignal differs from a scan of the segment", g.Name(), sig)
			}
			// Two callers appending to their results must not share storage.
			first := append(u.EventsOfSignal(sig), u.Root)
			_ = append(u.EventsOfSignal(sig), nil)
			if first[len(first)-1] != u.Root || !slices.Equal(u.EventsOfSignal(sig), want) {
				t.Fatalf("%s signal %d: appending to a result changed the index", g.Name(), sig)
			}
			if n := testing.AllocsPerRun(10, func() { u.EventsOfSignal(sig) }); n != 0 {
				t.Fatalf("%s signal %d: EventsOfSignal allocates %v times", g.Name(), sig, n)
			}
		}
	}
}
