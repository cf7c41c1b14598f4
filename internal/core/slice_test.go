package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/boolcover"
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

// oracleCorpus is sliceCorpus plus the paper's Figure 1 and a choice
// controller: the specs whose segments have conditions with two consumers,
// so that slices and approximations meet conflicts.
func oracleCorpus() []corpusSpec {
	return append(sliceCorpus(),
		corpusSpec{"fig1", benchgen.PaperFig1()},
		corpusSpec{"choice-16", benchgen.ChoiceController("choice-16", 16, 11)})
}

// pairwise is the one-pair-at-a-time relation layer that the causality index
// replaced, kept as the oracle of the slice and approximation tests.
type pairwise struct {
	u         *unfolding.Unfolding
	anyChoice bool
	conflicts map[[2]int]bool
}

func newPairwise(u *unfolding.Unfolding) *pairwise {
	p := &pairwise{u: u, conflicts: map[[2]int]bool{}}
	for _, c := range u.Conditions {
		p.anyChoice = p.anyChoice || len(c.Consumers) > 1
	}
	return p
}

// local returns the local configuration [e] of a non-root event.
func (p *pairwise) local(e *unfolding.Event) []*unfolding.Event {
	var out []*unfolding.Event
	for _, g := range p.u.Events {
		if g == e || !g.IsRoot && p.u.Before(g, e) {
			out = append(out, g)
		}
	}
	return out
}

// inConflict reports whether some condition is consumed by an event of [e]
// and by a different event of [f].
func (p *pairwise) inConflict(e, f *unfolding.Event) bool {
	u := p.u
	if !p.anyChoice || e == f || e.IsRoot || f.IsRoot || u.Before(e, f) || u.Before(f, e) {
		return false
	}
	key := [2]int{min(e.ID, f.ID), max(e.ID, f.ID)}
	if v, ok := p.conflicts[key]; ok {
		return v
	}
	consumedBy := map[*unfolding.Condition]*unfolding.Event{}
	for _, g := range p.local(e) {
		for _, c := range g.Preset {
			consumedBy[c] = g
		}
	}
	conflict := false
	for _, g := range p.local(f) {
		for _, c := range g.Preset {
			if other, ok := consumedBy[c]; ok && other != g {
				conflict = true
			}
		}
	}
	p.conflicts[key] = conflict
	return conflict
}

// concurrent reports whether two events are neither ordered nor in conflict.
func (p *pairwise) concurrent(e, f *unfolding.Event) bool {
	if e == f || e.IsRoot || f.IsRoot {
		return false
	}
	return !p.u.Before(e, f) && !p.u.Before(f, e) && !p.inConflict(e, f)
}

// conditionBeforeEvent reports whether some consumer of c lies in [f].
func (p *pairwise) conditionBeforeEvent(c *unfolding.Condition, f *unfolding.Event) bool {
	for _, g := range c.Consumers {
		if g == f || p.u.Before(g, f) {
			return true
		}
	}
	return false
}

// next returns the instances of the signal after e that no other such
// instance precedes: next(e), or first(signal) for the root.
func (p *pairwise) next(e *unfolding.Event, signal int) []*unfolding.Event {
	var candidates, out []*unfolding.Event
	for _, f := range p.u.EventsOfSignal(signal) {
		if f != e && p.u.Before(e, f) {
			candidates = append(candidates, f)
		}
	}
	for _, f := range candidates {
		if !slices.ContainsFunc(candidates, func(g *unfolding.Event) bool { return p.u.Before(g, f) }) {
			out = append(out, f)
		}
	}
	return out
}

// concurrentConditionEvent reports whether f can fire while c stays marked.
func (p *pairwise) concurrentConditionEvent(c *unfolding.Condition, f *unfolding.Event) bool {
	u := p.u
	if f.IsRoot || p.conditionBeforeEvent(c, f) {
		return false
	}
	if c.Producer == f || u.Before(f, c.Producer) {
		return false // f precedes c
	}
	return c.Producer.IsRoot || !p.inConflict(c.Producer, f)
}

// refSlice is a slice as the map-based construction built it: the slice's
// fields plus the lists of its events and of its sequential conditions, which
// the set-algebra construction keeps as a bitset and streams instead.
type refSlice struct {
	*Slice
	Events     []*unfolding.Event
	Conditions []*unfolding.Condition
}

// refNewSlice is the map-based slice construction initSlice replaced, kept
// as the oracle of TestNewSliceMatchesReference and of the approximation
// oracles.
func refNewSlice(p *pairwise, signal int, phase bool, entry *unfolding.Event) refSlice {
	u := p.u
	s := refSlice{Slice: &Slice{Signal: signal, Phase: phase, Entry: entry}}
	if entry.IsRoot {
		s.MinCut = u.MinStableCut(entry)
		s.MinCode = entry.Code.Clone()
	} else {
		s.MinCut = u.MinExcitationCut(entry)
		s.MinCode = u.ParentCode(entry)
	}
	s.Boundary = p.next(entry, signal)
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
		if !entry.IsRoot && f != entry && (u.Before(f, entry) || p.inConflict(entry, f)) {
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

// refErApproxCube is the pairwise ER approximation erApproxCube replaced.
func refErApproxCube(p *pairwise, s refSlice) boolcover.Cube {
	cube := boolcover.CubeFromMinterm(s.MinCode)
	for _, f := range s.Events {
		if f == s.Entry {
			continue
		}
		lf := p.u.Label(f)
		if lf.IsDummy || lf.Signal == s.Signal {
			continue
		}
		if p.concurrent(s.Entry, f) {
			cube.Set(lf.Signal, boolcover.Dash)
		}
	}
	return cube
}

// refApproximationSet is the list-based approximation-set selection with the
// pairwise "condition precedes a boundary instance" and subsumption tests that
// the streamed approximationSet replaced.
func refApproximationSet(p *pairwise, s refSlice) []*unfolding.Condition {
	var group1, group2 []*unfolding.Condition
	for _, c := range s.Conditions {
		if slices.ContainsFunc(s.Boundary, func(n *unfolding.Event) bool { return p.conditionBeforeEvent(c, n) }) {
			group1 = append(group1, c)
		} else {
			group2 = append(group2, c)
		}
	}
	kept := append([]*unfolding.Condition(nil), group1...)
	for _, c2 := range group2 {
		if !refSubsumedBy(p.u, s.Slice, c2, group1) {
			kept = append(kept, c2)
		}
	}
	return kept
}

// refSubsumedBy is the pairwise subsumption test of refApproximationSet:
// whether every slice cut containing c2 necessarily also contains one of the
// candidate conditions.
func refSubsumedBy(u *unfolding.Unfolding, s *Slice, c2 *unfolding.Condition, candidates []*unfolding.Condition) bool {
	for _, c1 := range candidates {
		if c1 == c2 {
			continue
		}
		// (a) c1 is produced no later than c2.
		if !(c1.Producer == c2.Producer || u.Before(c1.Producer, c2.Producer)) {
			continue
		}
		ok := true
		for _, f := range c1.Consumers {
			// (b) c1 is not consumed before c2 appears.
			if f == c2.Producer || u.Before(f, c2.Producer) {
				ok = false
				break
			}
			// (c) c1 can only be consumed by leaving the slice (a boundary
			// instance) or after c2 itself has been consumed.
			if s.isBoundary(f) {
				continue
			}
			consumedAfterC2 := false
			for _, g := range c2.Consumers {
				if g == f || u.Before(g, f) {
					consumedAfterC2 = true
					break
				}
			}
			if !consumedAfterC2 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// refConcurrentSliceSignals is the pairwise MR dash mask
// concurrentSliceSignals replaced.
func refConcurrentSliceSignals(p *pairwise, s refSlice, c *unfolding.Condition) []bool {
	out := make([]bool, p.u.STG.NumSignals())
	for _, f := range s.Events {
		lf := p.u.Label(f)
		if lf.IsDummy || lf.Signal == s.Signal || out[lf.Signal] {
			continue
		}
		if p.concurrentConditionEvent(c, f) {
			out[lf.Signal] = true
		}
	}
	return out
}

// refBoundaryInputTerms is the pairwise boundary-input construction
// boundaryInputTerms replaced: one "already produced" case per way a sibling
// input can precede c, and one concurrency query per instance of a
// concurrent producer's signal.
func refBoundaryInputTerms(p *pairwise, s refSlice, c *unfolding.Condition) (*boolcover.Cover, bool) {
	u := p.u
	var boundary *unfolding.Event
	for _, f := range c.Consumers {
		if s.isBoundary(f) {
			if boundary != nil && boundary != f {
				return nil, false
			}
			boundary = f
		}
	}
	if boundary == nil {
		return nil, false
	}
	var concurrentProducers []*unfolding.Event
	for _, b := range boundary.Preset {
		if b == c {
			continue
		}
		if len(b.Consumers) != 1 {
			return nil, false
		}
		prod := b.Producer
		switch {
		case prod == c.Producer || u.Before(prod, c.Producer) || prod.IsRoot && c.Producer.IsRoot:
			continue
		case prod.IsRoot:
			continue
		case p.concurrentConditionEvent(c, prod):
			lp := u.Label(prod)
			if lp.IsDummy {
				return nil, false
			}
			for _, other := range u.EventsOfSignal(lp.Signal) {
				if other != prod && p.concurrentConditionEvent(c, other) {
					return nil, false
				}
			}
			concurrentProducers = append(concurrentProducers, prod)
		default:
			return nil, false
		}
	}
	if len(concurrentProducers) == 0 {
		return nil, true
	}
	dash := refConcurrentSliceSignals(p, s, c)
	cover := boolcover.NewCover(u.STG.NumSignals())
	restricted := make([]bool, len(dash))
	for _, tk := range concurrentProducers {
		copy(restricted, dash)
		restricted[u.Label(tk).Signal] = false
		cover.Add(mrCube(c, restricted))
	}
	return cover, true
}

// TestNewSliceMatchesReference pins the set-algebra slice construction to
// the pairwise one on every slice of every signal of the corpus.
func TestNewSliceMatchesReference(t *testing.T) {
	for _, spec := range oracleCorpus() {
		u, err := unfolding.Build(context.Background(), spec.g, unfolding.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		d, p := newDeriver(u, u.Causality()), newPairwise(u)
		for sig := 0; sig < spec.g.NumSignals(); sig++ {
			on, off := d.buildSlices(sig)
			for _, s := range append(on, off...) {
				where := fmt.Sprintf("%s signal %d entry %s", spec.name, sig, u.EventName(s.Entry))
				ref := refNewSlice(p, sig, s.Phase, s.Entry)
				var conds []*unfolding.Condition
				seq := d.sequentialEvents(s)
				for id := seq.Next(0); id >= 0; id = seq.Next(id + 1) {
					conds = append(conds, u.Events[id].Postset...)
				}
				switch {
				case !slices.Equal(conds, ref.Conditions):
					t.Fatalf("%s: sequential conditions differ", where)
				case !slices.Equal(s.Boundary, ref.Boundary):
					t.Fatalf("%s: Boundary differs", where)
				case !slices.Equal(s.MinCut, ref.MinCut):
					t.Fatalf("%s: MinCut differs", where)
				case !s.MinCode.Equal(ref.MinCode):
					t.Fatalf("%s: MinCode %s, want %s", where, s.MinCode, ref.MinCode)
				}
				for _, f := range u.Events {
					if s.containsEvent(f) != slices.Contains(ref.Events, f) {
						t.Fatalf("%s: membership of %s disagrees with the reference Events", where, u.EventName(f))
					}
				}
			}
		}
	}
}

// TestApproximationMatchesReference pins the ER cube and the approximation
// set of every slice, and the MR dash mask and boundary-input terms of every
// approximation-set condition, to the pairwise derivations they replaced.
func TestApproximationMatchesReference(t *testing.T) {
	masks, handled, restricted := 0, 0, 0
	for _, spec := range oracleCorpus() {
		u, err := unfolding.Build(context.Background(), spec.g, unfolding.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		d, p := newDeriver(u, u.Causality()), newPairwise(u)
		for sig := 0; sig < spec.g.NumSignals(); sig++ {
			on, off := d.buildSlices(sig)
			for _, s := range append(on, off...) {
				where := fmt.Sprintf("%s signal %d entry %s", spec.name, sig, u.EventName(s.Entry))
				ref := refNewSlice(p, sig, s.Phase, s.Entry)
				if !s.Entry.IsRoot {
					if got, want := d.erApproxCube(s), refErApproxCube(p, ref); !got.Equal(want) {
						t.Fatalf("%s: ER cube %s, want %s", where, got, want)
					}
				}
				set := d.approximationSet(s)
				if want := refApproximationSet(p, ref); !slices.Equal(set, want) {
					t.Fatalf("%s: approximation set differs", where)
				}
				for _, c := range set {
					got, want := d.concurrentSliceSignals(s, c), refConcurrentSliceSignals(p, ref, c)
					if !slices.Equal(got, want) {
						t.Fatalf("%s condition %s: dash mask %v, want %v", where, u.ConditionName(c), got, want)
					}
					masks++
					gotCov, gotOK := d.boundaryInputTerms(s, c)
					wantCov, wantOK := refBoundaryInputTerms(p, ref, c)
					if gotOK != wantOK || (gotCov == nil) != (wantCov == nil) ||
						gotCov != nil && gotCov.String() != wantCov.String() {
						t.Fatalf("%s condition %s: boundary terms (%v, %v), want (%v, %v)",
							where, u.ConditionName(c), gotCov, gotOK, wantCov, wantOK)
					}
					if gotOK {
						handled++
						if gotCov != nil {
							restricted++
						}
					}
				}
			}
		}
	}
	if masks == 0 || handled == 0 || restricted == 0 {
		t.Fatalf("the corpus exercises %d approximation-set conditions, %d handled boundary inputs, %d restricted covers",
			masks, handled, restricted)
	}
}

// TestConcurrentSliceSignalsAllocFree pins the MR dash mask to its scratch
// buffers: after the first call, deriving it allocates nothing.
func TestConcurrentSliceSignalsAllocFree(t *testing.T) {
	g := benchgen.MullerPipelineWithSignals(22)
	u, err := unfolding.Build(context.Background(), g, unfolding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := newDeriver(u, u.Causality())
	on, _ := d.buildSlices(g.OutputSignals()[0])
	s := on[0]
	conds := d.approximationSet(s)
	if len(conds) == 0 {
		t.Fatal("the slice has no approximation-set condition")
	}
	d.concurrentSliceSignals(s, conds[0])
	allocs := testing.AllocsPerRun(50, func() {
		for _, c := range conds {
			d.concurrentSliceSignals(s, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("concurrentSliceSignals allocates %v times per pass", allocs)
	}
}

// TestApproximationSetAllocFree pins the approximation set to the shared
// deriver's scratch: once the deriver has served a signal, selecting the set
// of every slice of another allocates nothing.
func TestApproximationSetAllocFree(t *testing.T) {
	g := benchgen.MullerPipelineWithSignals(22)
	u, err := unfolding.Build(context.Background(), g, unfolding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := newDeriver(u, u.Causality())
	outputs := g.OutputSignals()
	warm, warmOff := d.buildSlices(outputs[0])
	for _, s := range append(warm, warmOff...) {
		d.approximationSet(s)
	}
	on, off := d.buildSlices(outputs[1])
	all := append(on, off...)
	kept := 0
	allocs := testing.AllocsPerRun(20, func() {
		kept = 0
		for _, s := range all {
			kept += len(d.approximationSet(s))
		}
	})
	if allocs != 0 {
		t.Fatalf("approximationSet allocates %v times over %d slices", allocs, len(all))
	}
	if kept == 0 {
		t.Fatal("no slice has an approximation-set condition")
	}
}

// TestCoversShareSegmentAcrossGoroutines derives covers from one segment on
// four goroutines at once, each with its own causality index and deriver, and compares
// them with a serial run.  Under the race detector it shows that cover
// derivation only reads the segment.
func TestCoversShareSegmentAcrossGoroutines(t *testing.T) {
	for _, g := range []*stg.STG{benchgen.CounterflowPipeline(), benchgen.PaperFig1()} {
		u, err := unfolding.Build(context.Background(), g, unfolding.Options{})
		if err != nil {
			t.Fatal(err)
		}
		syn := New(Options{})
		derive := func() (string, error) {
			d := newDeriver(u, u.Causality())
			var sb strings.Builder
			for _, sig := range g.OutputSignals() {
				on, off, _, _, _, err := syn.coversFor(d, sig)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&sb, "%s: on %s off %s\n", g.Signal(sig).Name, on, off)
			}
			return sb.String(), nil
		}
		want, err := derive()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		got := make([]string, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = derive()
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s goroutine %d: %v", g.Name(), i, errs[i])
			}
			if got[i] != want {
				t.Fatalf("%s goroutine %d: covers differ from the serial run:\n%s\nwant\n%s", g.Name(), i, got[i], want)
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
