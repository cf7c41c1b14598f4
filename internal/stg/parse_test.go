package stg

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"punt/internal/petri"
)

const handshakeG = `
# four-phase handshake controller
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.initial_state 00
.end
`

func TestParseHandshake(t *testing.T) {
	g, err := ParseString(handshakeG)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "hs" {
		t.Fatalf("name = %q", g.Name())
	}
	if g.NumSignals() != 2 {
		t.Fatalf("signals = %d", g.NumSignals())
	}
	if g.Net().NumTransitions() != 4 || g.Net().NumPlaces() != 4 {
		t.Fatalf("transitions=%d places=%d", g.Net().NumTransitions(), g.Net().NumPlaces())
	}
	if g.Net().Initial().Total() != 1 {
		t.Fatalf("initial tokens = %d", g.Net().Initial().Total())
	}
	if !g.HasInitialState() {
		t.Fatal("initial state should be parsed")
	}
	reach, err := g.Net().Reachability(petri.ReachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reach.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", reach.NumStates())
	}
}

const explicitPlacesG = `
.model choice
.inputs sel
.outputs go stop
.dummy done
.graph
p0 sel+ sel-
sel+ go+
go+ p1
sel- stop+
stop+ p1
p1 done
done p0
.marking { p0 }
.initial_state 000
.end
`

func TestParseExplicitPlacesAndDummy(t *testing.T) {
	g, err := ParseString(explicitPlacesG)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSignals() != 3 {
		t.Fatalf("signals = %d (dummies must not count)", g.NumSignals())
	}
	p0, ok := g.Net().PlaceByName("p0")
	if !ok {
		t.Fatal("explicit place p0 missing")
	}
	if !g.Net().IsChoicePlace(p0) {
		t.Fatal("p0 is a choice place")
	}
	// One of the transitions is a dummy.
	foundDummy := false
	for tr := 0; tr < g.Net().NumTransitions(); tr++ {
		if g.Label(petri.TransitionID(tr)).IsDummy {
			foundDummy = true
		}
	}
	if !foundDummy {
		t.Fatal("dummy transition not parsed")
	}
}

func TestParseInstanceSuffixes(t *testing.T) {
	src := `
.model inst
.outputs a b
.graph
a+ b+ b+/2
b+ a-
b+/2 a-
a- b-
b- a+
.marking { <b-,a+> }
.initial_state 00
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := g.SignalIndex("a")
	bi, _ := g.SignalIndex("b")
	if len(g.TransitionsOf(bi)) != 3 {
		t.Fatalf("expected three b transitions, got %d", len(g.TransitionsOf(bi)))
	}
	if len(g.TransitionsOf(ai)) != 2 {
		t.Fatalf("expected two a transitions, got %d", len(g.TransitionsOf(ai)))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".model x\n.graph\np0 p1\n.end\n",                                                              // place-to-place arc
		".model x\n.outputs a\n.graph\na+ a-\n.unknown\n.end\n",                                        // unknown directive
		".model x\n.outputs a\nfoo bar\n.end\n",                                                        // line outside .graph
		".model x\n.outputs a\n.graph\na+ a-\na- a+\n.marking { <a+,b-> }\n.end\n",                     // unknown marking place
		".model x\n.outputs a\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.initial_state 011\n.end\n", // wrong width
	}
	for i, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	g, err := ParseString(handshakeG)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(g)
	if text == "" {
		t.Fatal("Format returned empty")
	}
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if g2.NumSignals() != g.NumSignals() ||
		g2.Net().NumTransitions() != g.Net().NumTransitions() ||
		g2.Net().NumPlaces() != g.Net().NumPlaces() {
		t.Fatalf("round trip changed sizes:\n%s", text)
	}
	r1, err := g.Net().Reachability(petri.ReachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Net().Reachability(petri.ReachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumStates() != r2.NumStates() {
		t.Fatalf("round trip changed state count %d -> %d", r1.NumStates(), r2.NumStates())
	}
}

func TestWriteRoundTripExplicitPlaces(t *testing.T) {
	g, err := ParseString(explicitPlacesG)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(g)
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if g2.Net().NumPlaces() != g.Net().NumPlaces() {
		t.Fatalf("place count changed:\n%s", text)
	}
	if !strings.Contains(text, ".dummy done") {
		t.Fatalf("dummy section missing:\n%s", text)
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	src := "# leading comment\n\n" + handshakeG + "\n# trailing comment\n"
	if _, err := ParseString(src); err != nil {
		t.Fatal(err)
	}
}

// TestParseLongLine checks that a line far longer than the parser's initial
// buffer still parses: here a 200 KiB .marking line.
func TestParseLongLine(t *testing.T) {
	pad := strings.Repeat(" ", 200<<10)
	src := strings.Replace(handshakeG, ".marking { <ack-,req+> }", ".marking {"+pad+"<ack-,req+>"+pad+"}", 1)
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Net().Initial().Total() != 1 {
		t.Fatalf("initial tokens = %d, want 1", g.Net().Initial().Total())
	}
}

// TestParseLineTooLong checks that a line over the 1 MiB cap fails with its
// line number.
func TestParseLineTooLong(t *testing.T) {
	src := ".model x\n.outputs a\n# " + strings.Repeat("x", maxLineBytes) + "\n.graph\na+ a-\na- a+\n.end\n"
	_, err := ParseString(src)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.HasPrefix(err.Error(), "stg: line 3: ") {
		t.Fatalf("err = %q, want it to name line 3", err)
	}
}

// TestDeclaresInitialState checks the directive scan against what Parse makes
// of the same text, including a commented-out directive and one without bits.
func TestDeclaresInitialState(t *testing.T) {
	body := ".model hs\n.inputs req\n.outputs ack\n.graph\nreq+ ack+\nack+ req-\nreq- ack-\nack- req+\n.marking { <ack-,req+> }\n"
	for _, tail := range []string{
		".initial_state 00\n.end\n",
		"  .initial_state 10   # started high\r\n.end\n",
		".initial_state 01",
		"# .initial_state 00\n.end\n",
		".initial_state\n.end\n",
		".initial_state # 00\n.end\n",
		".end\n",
	} {
		text := body + tail
		g, err := ParseString(text)
		if err != nil {
			t.Fatalf("%q: %v", tail, err)
		}
		if got := DeclaresInitialState(text); got != g.HasInitialState() {
			t.Errorf("%q: DeclaresInitialState = %v, parsed initial state %v", tail, got, g.HasInitialState())
		}
	}
}
