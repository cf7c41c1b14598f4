package unfolding_test

import (
	"context"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stategraph"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// These tests compare the segment with the explicit state graph.  They live
// in the external test package because stategraph imports unfolding.

func build(t *testing.T, g *stg.STG) *unfolding.Unfolding {
	t.Helper()
	u, err := unfolding.Build(context.Background(), g, unfolding.Options{})
	if err != nil {
		t.Fatalf("Build(context.Background(), %s): %v", g.Name(), err)
	}
	return u
}

// statesOfSG converts the explicit state graph into the same key space used
// by Unfolding.ReachableStates.
func statesOfSG(sg *stategraph.Graph) map[string]string {
	out := map[string]string{}
	for _, s := range sg.States {
		out[s.Marking.Key()+"|"+s.Code.String()] = s.Code.String()
	}
	return out
}

// TestCompleteness verifies the fundamental property the synthesis method
// relies on: the set of states represented by configurations of the segment
// equals the set of states of the explicit state graph.
func TestCompleteness(t *testing.T) {
	builders := map[string]func() *stg.STG{
		"fig1":      benchgen.PaperFig1,
		"fig4":      benchgen.PaperFig4,
		"handshake": benchgen.Handshake,
	}
	for name, mk := range builders {
		g := mk()
		u := build(t, g)
		sg, err := stategraph.Build(context.Background(), mk(), stategraph.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := statesOfSG(sg)
		got := u.ReachableStates()
		if len(got) != len(want) {
			t.Fatalf("%s: unfolding represents %d states, SG has %d", name, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("%s: state %s missing from the unfolding", name, k)
			}
		}
	}
}

func TestFig4UnfoldingSmallerThanSG(t *testing.T) {
	g := benchgen.PaperFig4()
	u := build(t, g)
	sg, err := stategraph.Build(context.Background(), benchgen.PaperFig4(), stategraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumEvents() >= sg.NumStates() {
		t.Fatalf("unfolding (%d events) should be smaller than the SG (%d states) for a highly concurrent STG",
			u.NumEvents(), sg.NumStates())
	}
}
