package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

type corpusSpec struct {
	name string
	g    *stg.STG
}

// sliceCorpus is the corpus of the slice and refinement pins: the Table 1
// suite, the four Figure 6 specs and 50 random controllers of 4 to 12
// signals.
func sliceCorpus() []corpusSpec {
	var specs []corpusSpec
	for _, e := range benchgen.Table1Suite() {
		specs = append(specs, corpusSpec{e.Name, e.Build()})
	}
	for _, n := range []int{22, 34, 50} {
		specs = append(specs, corpusSpec{fmt.Sprintf("pipeline-%d", n), benchgen.MullerPipelineWithSignals(n)})
	}
	specs = append(specs, corpusSpec{"counterflow", benchgen.CounterflowPipeline()})
	for s := int64(1); s <= 50; s++ {
		specs = append(specs, corpusSpec{fmt.Sprintf("random-%d", s), benchgen.RandomSTG(s, int(4+s%9))})
	}
	return specs
}

// refNewSlice is the map-based slice construction newSlice replaced, kept
// as the oracle of TestNewSliceMatchesReference.
func refNewSlice(u *unfolding.Unfolding, signal int, phase bool, entry *unfolding.Event) *Slice {
	s := &Slice{Signal: signal, Phase: phase, Entry: entry}
	if entry.IsRoot {
		s.MinCut = u.MinStableCut(entry)
		s.MinCode = entry.Code.Clone()
		s.Boundary = u.First(signal)
	} else {
		s.MinCut = u.MinExcitationCut(entry)
		s.MinCode = u.ParentCode(entry)
		s.Boundary = u.Next(entry)
	}
	beyond := func(f *unfolding.Event) bool {
		for _, n := range s.Boundary {
			if n == f || u.Before(n, f) {
				return true
			}
		}
		return false
	}
	for _, f := range u.Events {
		if f.IsRoot || f.IsCutoff && f != entry {
			continue
		}
		lf := u.Label(f)
		if !lf.IsDummy && lf.Signal == signal && f != entry {
			continue
		}
		if beyond(f) {
			continue
		}
		if !entry.IsRoot && f != entry && (u.Before(f, entry) || u.InConflict(entry, f)) {
			continue
		}
		s.Events = append(s.Events, f)
	}
	sort.Slice(s.Events, func(i, j int) bool { return s.Events[i].ID < s.Events[j].ID })
	inEvents := map[int]bool{}
	for _, f := range s.Events {
		inEvents[f.ID] = true
	}
	for _, c := range u.Conditions {
		prod := c.Producer
		if prod == nil {
			continue
		}
		switch {
		case prod.IsRoot:
			if entry.IsRoot {
				s.Conditions = append(s.Conditions, c)
			}
		case prod == entry:
			s.Conditions = append(s.Conditions, c)
		case inEvents[prod.ID] && (entry.IsRoot || u.Before(entry, prod)):
			s.Conditions = append(s.Conditions, c)
		}
	}
	sort.Slice(s.Conditions, func(i, j int) bool { return s.Conditions[i].ID < s.Conditions[j].ID })
	return s
}

// TestNewSliceMatchesReference pins the bitset slice construction to the
// map-based one on every slice of every signal of the corpus.
func TestNewSliceMatchesReference(t *testing.T) {
	for _, spec := range sliceCorpus() {
		u, err := unfolding.Build(context.Background(), spec.g, unfolding.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		for sig := 0; sig < spec.g.NumSignals(); sig++ {
			on, off := buildSlices(u, sig)
			for _, s := range append(on, off...) {
				where := fmt.Sprintf("%s signal %d entry %s", spec.name, sig, u.EventName(s.Entry))
				ref := refNewSlice(u, sig, s.Phase, s.Entry)
				switch {
				case !slices.Equal(s.Events, ref.Events):
					t.Fatalf("%s: Events differ", where)
				case !slices.Equal(s.Conditions, ref.Conditions):
					t.Fatalf("%s: Conditions differ", where)
				case !slices.Equal(s.Boundary, ref.Boundary):
					t.Fatalf("%s: Boundary differs", where)
				case !slices.Equal(s.MinCut, ref.MinCut):
					t.Fatalf("%s: MinCut differs", where)
				case !s.MinCode.Equal(ref.MinCode):
					t.Fatalf("%s: MinCode %s, want %s", where, s.MinCode, ref.MinCode)
				}
				for _, f := range u.Events {
					if s.containsEvent(f) != slices.Contains(ref.Events, f) {
						t.Fatalf("%s: membership of %s disagrees with Events", where, u.EventName(f))
					}
				}
			}
		}
	}
}

// TestRefinementCountsUnchanged pins how much refinement the corpus needs:
// TermsRefined/SignalsRefined of every spec that needs any, and the specs
// that fail with a CSC conflict.  Every other spec needs no refinement.
func TestRefinementCountsUnchanged(t *testing.T) {
	refined := map[string][2]int{
		"imec-master-read.csc": {127, 7},
		"par_4.csc":            {88, 8},
		"forever_ordered":      {14, 2},
		"mp-forward-pkt":       {250, 14},
		"nak-pa":               {32, 4},
		"pe-send-ifc":          {37, 5},
		"sbuf-ram-write":       {64, 6},
		"sbuf-send-ctl":        {14, 2},
		"sbuf-send-pkt2.yun":   {23, 3},
		"random-4":             {14, 2},
		"random-5":             {23, 3},
		"random-8":             {66, 6},
		"random-14":            {23, 3},
		"random-16":            {41, 5},
		"random-22":            {14, 2},
		"random-31":            {14, 2},
		"random-35":            {18, 7},
		"random-41":            {23, 3},
		"random-42":            {32, 4},
		"random-44":            {18, 7},
	}
	conflicts := map[string]bool{"random-17": true, "random-29": true, "random-30": true}
	for _, spec := range sliceCorpus() {
		_, st, err := New(Options{}).Synthesize(context.Background(), spec.g)
		if conflicts[spec.name] {
			var cscErr *CSCError
			if !errors.As(err, &cscErr) {
				t.Errorf("%s: err = %v, want a CSC conflict", spec.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if got := [2]int{st.TermsRefined, st.SignalsRefined}; got != refined[spec.name] {
			t.Errorf("%s: TermsRefined/SignalsRefined = %v, want %v", spec.name, got, refined[spec.name])
		}
	}
}
