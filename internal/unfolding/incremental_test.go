package unfolding

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/bitvec"
	"punt/internal/stg"
)

// incrementalSuite is the corpus the incremental-engine properties are checked
// against: the whole Table 1 suite plus scalable pipelines and the synthetic
// controllers.
func incrementalSuite() []struct {
	name string
	mk   func() *stg.STG
} {
	var out []struct {
		name string
		mk   func() *stg.STG
	}
	add := func(name string, mk func() *stg.STG) {
		out = append(out, struct {
			name string
			mk   func() *stg.STG
		}{name, mk})
	}
	for _, e := range benchgen.Table1Suite() {
		add(e.Name, e.Build)
	}
	for _, n := range []int{5, 12, 22} {
		n := n
		add(fmt.Sprintf("pipeline-%d", n), func() *stg.STG { return benchgen.MullerPipelineWithSignals(n) })
	}
	add("counterflow", benchgen.CounterflowPipeline)
	add("synthetic-24", func() *stg.STG { return benchgen.SyntheticController("synthetic-24", 24, 7) })
	add("choice-12", func() *stg.STG { return benchgen.ChoiceController("choice-12", 12, 11) })
	return out
}

// TestIncrementalMatchesReplay is the property test of the incremental state
// engine: with DebugCheck enabled, Build cross-validates every event's
// incremental cut, marking and parent code against the retained full-replay
// implementation and fails on the first mismatch.
func TestIncrementalMatchesReplay(t *testing.T) {
	for _, c := range incrementalSuite() {
		u, err := Build(context.Background(), c.mk(), Options{DebugCheck: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plain, err := Build(context.Background(), c.mk(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if u.Statistics() != plain.Statistics() {
			t.Fatalf("%s: DebugCheck changed the segment: %v vs %v", c.name, u.Statistics(), plain.Statistics())
		}
	}
}

// TestParallelDebugCheck builds the pipeline-12 segment with the
// incremental-engine cross-validation on and checks that the replay oracle
// leaves the segment byte-identical. The name predates the removal of the
// sharded possible-extension pool; the build is now always sequential.
func TestParallelDebugCheck(t *testing.T) {
	ctx := context.Background()
	g := benchgen.MullerPipelineWithSignals(12)
	checked, err := Build(ctx, g, Options{DebugCheck: true})
	if err != nil {
		t.Fatalf("DebugCheck build: %v", err)
	}
	plain, err := Build(ctx, g, Options{})
	if err != nil {
		t.Fatalf("plain build: %v", err)
	}
	if checked.Dump() != plain.Dump() {
		t.Fatalf("DebugCheck changed the segment (%d vs %d events)", checked.NumEvents(), plain.NumEvents())
	}
}

// TestHashedCutoffMatchesStringKeyed verifies that the hash-keyed cut-off
// detection reproduces the seed's string-keyed behaviour: replaying events in
// instantiation order against a string-keyed (marking, code) table must mark
// exactly the same events as cut-offs, with the same correspondents.  The
// table's marking is derived from each event's cut, independently of the
// place sets Build keys its own table on.
func TestHashedCutoffMatchesStringKeyed(t *testing.T) {
	for _, c := range incrementalSuite() {
		u, err := Build(context.Background(), c.mk(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		states := map[string]*Event{}
		for _, e := range u.Events {
			key := markingOfCut(e.Cut).Key() + "|" + e.Code.Key()
			prior, seen := states[key]
			if e.IsCutoff {
				if !seen {
					t.Fatalf("%s: %s is a cut-off but no earlier event reaches its state", c.name, u.EventName(e))
				}
				if e.Correspondent != prior {
					t.Fatalf("%s: %s corresponds to %s, string-keyed table says %s",
						c.name, u.EventName(e), u.EventName(e.Correspondent), u.EventName(prior))
				}
				continue
			}
			if seen {
				t.Fatalf("%s: %s reaches the state of %s but is not a cut-off", c.name, u.EventName(e), u.EventName(prior))
			}
			states[key] = e
		}
	}
}

// TestCutBitsetsMatchCutSlices checks every event's Cut slice for order and
// its place set, the cut-off key, against the cut's places: one place per
// condition, no place missing, none extra.
func TestCutBitsetsMatchCutSlices(t *testing.T) {
	for _, c := range incrementalSuite() {
		u, err := Build(context.Background(), c.mk(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, e := range u.Events {
			prev := -1
			for _, cond := range e.Cut {
				if cond.ID <= prev {
					t.Fatalf("%s: cut of %s is not sorted by condition ID", c.name, u.EventName(e))
				}
				prev = cond.ID
			}
			want := bitvec.New(u.STG.Net().NumPlaces())
			for _, cond := range e.Cut {
				want.Set(int(cond.Place), true)
			}
			if !want.Equal(e.places) || e.places.Count() != len(e.Cut) {
				t.Fatalf("%s: place set %s of %s disagrees with its cut (places %s, %d conditions)",
					c.name, e.places, u.EventName(e), want, len(e.Cut))
			}
		}
	}
}

// TestUnsafeConcurrentPlaceRejected exercises the unified safeness check: a
// transition whose postset place is already marked by a concurrent condition
// makes the net non-safe (the place would hold two tokens).
func TestUnsafeConcurrentPlaceRejected(t *testing.T) {
	g := stg.New("unsafe-concurrent")
	p0 := g.AddPlace("p0")
	p1 := g.AddPlace("p1")
	d := g.AddDummyTransition("d")
	g.AddArcPT(p0, d)
	g.AddArcTP(d, p1)
	g.MarkInitially(p0)
	g.MarkInitially(p1) // p1 is marked while d can mark it again
	g.SetInitialState(bitvec.New(0))
	_, err := Build(context.Background(), g, Options{})
	if !errors.Is(err, ErrNotSafe) {
		t.Fatalf("expected ErrNotSafe, got %v", err)
	}
}
