package stg

import (
	"os"
	"testing"
)

// FuzzParse feeds mutated ".g" sources to the parser.  Three properties are
// enforced on every input the parser accepts:
//
//   - no panics (the fuzzer rejects them automatically),
//   - WriteG output must parse again (the writer may not emit syntax the
//     parser rejects),
//   - the round trip must be semantically faithful and textually stable:
//     the reparsed STG carries the same signals (by name and kind), the same
//     net size, the same marking and the same per-signal initial state, and
//     writing it again reproduces the text byte for byte.
//
// The seed corpus under testdata/fuzz/FuzzParse is generated from the
// repository's testdata specifications; the shipped .g files are also added
// here so the corpus survives file moves.  Run with:
//
//	go test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/stg
func FuzzParse(f *testing.F) {
	for _, path := range []string{
		"../../testdata/fig1.g",
		"../../testdata/csc.g",
		"../../testdata/nonsm.g",
	} {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(string(data))
		}
	}
	// Hand-written fragments covering the trickier syntax: dummies, explicit
	// places, instance numbering, interleaved declarations.
	f.Add(".model m\n.inputs a\n.outputs b\n.dummy d\n.graph\na+ d\nd b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n")
	f.Add(".model m\n.outputs b\n.inputs a\n.graph\np a+ a-\na+ b+\nb+ q\nq a-\na- b-\nb- p\n.marking { p }\n.initial_state 10\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs b\n.graph\na+ b+/2\nb+/2 a-\na- b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end\n")

	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseString(src)
		if err != nil {
			return // rejected inputs are fine; only panics and mis-parses are bugs
		}
		if DeclaresInitialState(src) != g.HasInitialState() {
			t.Fatalf("DeclaresInitialState = %v, but the parsed STG has initial state %v\n%s",
				DeclaresInitialState(src), g.HasInitialState(), src)
		}
		text1 := Format(g)
		g2, err := ParseString(text1)
		if err != nil {
			t.Fatalf("WriteG emitted text the parser rejects: %v\n%s", err, text1)
		}
		sameSTG(t, g, g2, text1)
		if text2 := Format(g2); text2 != text1 {
			t.Fatalf("write/parse round trip is unstable:\n--- first:\n%s--- second:\n%s", text1, text2)
		}
	})
}

// sameSTG checks that the reparsed STG is semantically the one the writer was
// given (the writer may reorder declarations, so signals are compared by
// name).
func sameSTG(t *testing.T, g, g2 *STG, text string) {
	t.Helper()
	if g2.NumSignals() != g.NumSignals() {
		t.Fatalf("round trip changed signal count %d -> %d\n%s", g.NumSignals(), g2.NumSignals(), text)
	}
	for _, s := range g.Signals() {
		i2, ok := g2.SignalIndex(s.Name)
		if !ok {
			t.Fatalf("round trip lost signal %q\n%s", s.Name, text)
		}
		if g2.Signal(i2).Kind != s.Kind {
			t.Fatalf("round trip changed kind of %q: %v -> %v\n%s", s.Name, s.Kind, g2.Signal(i2).Kind, text)
		}
	}
	if g2.Net().NumTransitions() != g.Net().NumTransitions() {
		t.Fatalf("round trip changed transition count %d -> %d\n%s",
			g.Net().NumTransitions(), g2.Net().NumTransitions(), text)
	}
	if g2.Net().NumPlaces() != g.Net().NumPlaces() {
		t.Fatalf("round trip changed place count %d -> %d\n%s",
			g.Net().NumPlaces(), g2.Net().NumPlaces(), text)
	}
	if got, want := g2.Net().Initial().Total(), g.Net().Initial().Total(); got != want {
		t.Fatalf("round trip changed the marking: %d -> %d tokens\n%s", want, got, text)
	}
	if g2.HasInitialState() != g.HasInitialState() {
		t.Fatalf("round trip dropped the initial state\n%s", text)
	}
	if g.HasInitialState() {
		v, v2 := g.InitialState(), g2.InitialState()
		for i, s := range g.Signals() {
			i2, _ := g2.SignalIndex(s.Name)
			if v.Get(i) != v2.Get(i2) {
				t.Fatalf("round trip changed the initial value of %q\n%s", s.Name, text)
			}
		}
	}
}
