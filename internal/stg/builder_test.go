package stg

import (
	"regexp"
	"strconv"
	"testing"
)

func TestBuilderHandshake(t *testing.T) {
	// Simple two-signal four-phase handshake: req+ -> ack+ -> req- -> ack- -> req+
	b := NewBuilder("handshake")
	b.Inputs("req").Outputs("ack")
	b.Arc("req+", "ack+").Arc("ack+", "req-").Arc("req-", "ack-").Arc("ack-", "req+")
	b.MarkBetween("ack-", "req+")
	b.InitialState("00")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Net().NumTransitions() != 4 || g.Net().NumPlaces() != 4 {
		t.Fatalf("transitions=%d places=%d", g.Net().NumTransitions(), g.Net().NumPlaces())
	}
	if !g.Net().IsMarkedGraph() {
		t.Fatal("handshake is a marked graph")
	}
	safe, err := g.Net().IsSafe(0)
	if err != nil || !safe {
		t.Fatal("handshake is safe")
	}
}

func TestBuilderChain(t *testing.T) {
	b := NewBuilder("chain")
	b.Outputs("a", "b")
	b.Chain("a+", "b+", "a-", "b-").Arc("b-", "a+").MarkBetween("b-", "a+")
	b.InitialState("00")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Net().NumTransitions() != 4 {
		t.Fatalf("transitions = %d", g.Net().NumTransitions())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("err")
	b.Outputs("a")
	b.Arc("a+", "z+") // z not declared
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undeclared signal")
	}

	b2 := NewBuilder("err2")
	b2.Outputs("a")
	b2.Arc("a+", "a-").Arc("a-", "a+").MarkBetween("a-", "a+")
	b2.InitialState("01") // wrong width
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for initial state width")
	}

	b3 := NewBuilder("err3")
	b3.Outputs("a")
	b3.MarkBetween("a+", "a-") // no such arc yet
	if _, err := b3.Build(); err == nil {
		t.Fatal("expected error for marking a non-existent implicit place")
	}
}

func TestBuilderExplicitPlaces(t *testing.T) {
	b := NewBuilder("explicit")
	b.Inputs("x").Outputs("y")
	b.Place("p0").Place("p1")
	b.PlaceArc("p0", "x+").PlaceArc("x+", "p1").PlaceArc("p1", "y+")
	b.Arc("y+", "x-").Arc("x-", "y-").Arc("y-", "x+")
	// route y- back to p0 as well to close the cycle for x+'s second input
	b.PlaceArc("y-", "p0")
	b.Mark("p0").MarkBetween("y-", "x+")
	b.InitialState("00")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Net().PlaceByName("p0"); !ok {
		t.Fatal("explicit place p0 missing")
	}
	safe, err := g.Net().IsSafe(0)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Fatal("explicit-place STG should be safe")
	}
}

func TestParseEdge(t *testing.T) {
	cases := []struct {
		in   string
		sig  string
		dir  Direction
		inst int
		ok   bool
	}{
		{"a+", "a", Plus, 0, true},
		{"req-/3", "req", Minus, 3, true},
		{"x_1+", "x_1", Plus, 0, true},
		{"p0", "", 0, 0, false},
		{"a~", "", 0, 0, false},
	}
	for _, tc := range cases {
		sig, dir, inst, ok := ParseEdge(tc.in)
		if ok != tc.ok {
			t.Errorf("ParseEdge(%q) ok=%v want %v", tc.in, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if sig != tc.sig || dir != tc.dir || inst != tc.inst {
			t.Errorf("ParseEdge(%q) = %q,%v,%d", tc.in, sig, dir, inst)
		}
	}
}

// edgeRE is the grammar ParseEdge implements by hand.
var edgeRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_.\[\]]*)([+\-~])(?:/([0-9]+))?$`)

// TestParseEdgeMatchesRegexp checks ParseEdge against edgeRE on every string
// of up to four characters over an alphabet that covers each character class
// of the grammar, plus longer hand-picked references.
func TestParseEdgeMatchesRegexp(t *testing.T) {
	check := func(s string) {
		sig, dir, inst, ok := ParseEdge(s)
		m := edgeRE.FindStringSubmatch(s)
		wantOK := m != nil && m[2] != "~"
		if ok != wantOK {
			t.Fatalf("ParseEdge(%q) ok=%v, grammar says %v", s, ok, wantOK)
		}
		if !ok {
			return
		}
		wantDir := Plus
		if m[2] == "-" {
			wantDir = Minus
		}
		wantInst := 0
		if m[3] != "" {
			wantInst, _ = strconv.Atoi(m[3])
		}
		if sig != m[1] || dir != wantDir || inst != wantInst {
			t.Fatalf("ParseEdge(%q) = %q,%v,%d, want %q,%v,%d", s, sig, dir, inst, m[1], wantDir, wantInst)
		}
	}
	const alphabet = "a_Z09.[]+-~/ <,"
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		check(prefix)
		if depth == 0 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(prefix+alphabet[i:i+1], depth-1)
		}
	}
	walk("", 4)
	for _, s := range []string{"req_ack[3].x+/12", "a+/007", "a+/", "a+/1/2", "a/1+", "b-/99999999999999999999", "é+", "a+ ", "a++"} {
		check(s)
	}
}

func TestDescribe(t *testing.T) {
	b := NewBuilder("desc")
	b.Inputs("i").Outputs("o")
	b.Arc("i+", "o+").Arc("o+", "i-").Arc("i-", "o-").Arc("o-", "i+").MarkBetween("o-", "i+")
	b.InitialState("00")
	g := b.MustBuild()
	s := Describe(g)
	if s == "" || !contains(s, "desc") {
		t.Fatalf("Describe = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
