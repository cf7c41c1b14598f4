package core

import (
	"slices"

	"punt/internal/bitvec"
	"punt/internal/boolcover"
	"punt/internal/unfolding"
)

// approxTerm is one term of an approximated slice cover: either the
// excitation-region approximation of the slice's entry instance (Cond == nil)
// or the marked-region approximation of one condition of the approximation
// set.  When refinement replaces the approximation by the exact
// locally-enumerated cover, Exact is set.
type approxTerm struct {
	Slice *Slice
	Cond  *unfolding.Condition // nil for the ER term of the entry instance
	Cover *boolcover.Cover
	Exact bool
}

// signalApprox holds the approximated on- and off-set covers of one signal,
// term by term, so that refinement can replace exactly the offending terms.
type signalApprox struct {
	Signal   int
	OnTerms  []*approxTerm
	OffTerms []*approxTerm
}

func unionTerms(terms []*approxTerm, nvars int) *boolcover.Cover {
	c := boolcover.NewCover(nvars)
	for _, t := range terms {
		c.AddAll(t.Cover)
	}
	return c
}

// erApproxCube computes the excitation-region cover approximation C*_e of the
// slice's entry instance: the binary code of its minimal excitation cut with
// the literals of every signal that has an instance in the slice concurrent
// to the entry replaced by don't-cares.  The slice already excludes the
// entry's past and the events in conflict with it, so its events outside the
// entry's future are exactly those concurrent to the entry.
func (d *deriver) erApproxCube(s *Slice) boolcover.Cube {
	cube := boolcover.CubeFromMinterm(s.MinCode)
	d.conc.CopyFrom(s.members)
	d.conc.AndNot(d.cz.Future(s.Entry))
	for sig, dash := range d.signalsOf(d.conc, s.Signal) {
		if dash {
			cube.Set(sig, boolcover.Dash)
		}
	}
	return cube
}

// concurrentSliceSignals returns, for a condition of the slice, the mask of
// signals (indexed by signal) that have an instance in the slice concurrent
// to the condition — the literals weakened to don't-care by the MR
// approximation.  The mask is d.dash: it is only valid until the next call.
func (d *deriver) concurrentSliceSignals(s *Slice, c *unfolding.Condition) []bool {
	d.conc.CopyFrom(s.members)
	d.cz.KeepConcurrent(d.conc, c)
	return d.signalsOf(d.conc, s.Signal)
}

// signalsOf fills d.dash with the signals other than own that label an event
// of the set, emptying the set of their events as it goes.
func (d *deriver) signalsOf(events bitvec.Vec, own int) []bool {
	clear(d.dash)
	for id := events.Next(0); id >= 0; id = events.Next(id + 1) {
		sig := d.signal[id]
		if sig < 0 || sig == own {
			continue
		}
		d.dash[sig] = true
		// The signal is settled: skip its remaining events.
		events.AndNot(d.cz.SignalEvents(sig))
	}
	return d.dash
}

// mrCube builds one marked-region cube for the condition: the binary code of
// the local configuration of its preceding transition with the signals set in
// the dash mask replaced by don't-cares.
func mrCube(c *unfolding.Condition, dash []bool) boolcover.Cube {
	cube := boolcover.CubeFromMinterm(c.Producer.Code)
	for sig, d := range dash {
		if d {
			cube.Set(sig, boolcover.Dash)
		}
	}
	return cube
}

// approximationSet selects the conditions of the slice used for the MR
// approximation (the paper's P'_a).  It keeps the conditions that lie on
// causal paths from the entry to the slice boundary (the "sequential"
// approximation set of the paper) plus any condition not subsumed by them,
// where subsumption is established structurally: condition c2 is dropped when
// some kept condition c1 is produced no later than c2, cannot have been
// consumed while c2 exists, and can only be consumed by leaving the slice or
// after c2 itself is consumed — then every cut containing c2 also contains
// c1, so dropping c2 loses no coverage.
//
// The candidates are streamed once from the postsets of sequentialEvents, in
// ID order.  A condition precedes the boundary when one of its consumers lies
// in d.ahead, the union of the boundary instances' pasts; those (group 1) are
// kept as they come and leave their subsumption rows (see addRows).  The
// others (group 2) wait in d.group2, marked open in d.openConds, with their
// producers in d.openProducers.  Then each group-1 condition, latest first,
// closes the open conditions it subsumes (see close).  What stays open is
// kept.  The result is d.kept — group 1, then the unsubsumed group 2, each
// in ID order — and is only valid until the next call.
func (d *deriver) approximationSet(s *Slice) []*unfolding.Condition {
	d.ahead.Clear()
	for _, n := range s.Boundary {
		d.cz.OrPast(d.ahead, n)
	}
	d.kept, d.group2, d.ends = d.kept[:0], d.group2[:0], d.ends[:0]
	d.openProducers.Clear()
	seq := d.sequentialEvents(s)
	for id := seq.Next(0); id >= 0; id = seq.Next(id + 1) {
		for _, c := range d.u.Events[id].Postset {
			if slices.ContainsFunc(c.Consumers, func(g *unfolding.Event) bool { return d.ahead.Get(g.ID) }) {
				d.kept = append(d.kept, c)
				d.addRows(s, c)
			} else {
				d.group2 = append(d.group2, c)
				d.openConds.Set(c.ID, true)
				d.openProducers.Set(id, true)
			}
		}
	}
	for i := len(d.ends) - 1; i >= 0; i-- {
		start := 0
		if i > 0 {
			start = d.ends[i-1]
		}
		d.close(d.rows[start], d.rows[start+1:d.ends[i]])
	}
	for _, c2 := range d.group2 {
		if d.openConds.Get(c2.ID) {
			d.kept = append(d.kept, c2)
			d.openConds.Set(c2.ID, false)
		}
	}
	return d.kept
}

// close closes the open group-2 conditions that the group-1 condition with
// the given rows subsumes: those whose producer is in its first row and
// which have a consumer in each of its past rows.  ANDing the first row with
// the open producers leaves only the producers worth a look, so the cost
// follows the candidates that pass the first test, not all of them.  It
// consumes the first row.
func (d *deriver) close(first bitvec.Vec, pasts []bitvec.Vec) {
	first.And(d.openProducers)
	for id := first.Next(0); id >= 0; id = first.Next(id + 1) {
		open := false
		for _, c2 := range d.u.Events[id].Postset {
			if !d.openConds.Get(c2.ID) {
				continue
			}
			if consumedWithin(c2, pasts) {
				d.openConds.Set(c2.ID, false)
			} else {
				open = true
			}
		}
		d.openProducers.Set(id, open)
	}
}

// addRows appends the subsumption rows of the group-1 condition c1.  The
// first holds the events whose past holds c1's producer but none of its
// consumers: Future(c1's producer) minus the futures of c1's consumers, so
// c1 is marked whenever a condition c2 appears exactly when c2's producer is
// in it.  Then, for each consumer f of c1 that is not a
// boundary instance, comes the past [f]: c1 is consumed inside the slice only
// after c2 when a consumer of c2 lies in [f].
func (d *deriver) addRows(s *Slice, c1 *unfolding.Condition) {
	n := 0
	if len(d.ends) > 0 {
		n = d.ends[len(d.ends)-1]
	}
	row := d.row(n)
	row.CopyFrom(d.cz.Future(c1.Producer))
	for _, f := range c1.Consumers {
		row.AndNot(d.cz.Future(f))
	}
	n++
	for _, f := range c1.Consumers {
		if !s.isBoundary(f) {
			past := d.row(n)
			past.Clear()
			d.cz.OrPast(past, f)
			n++
		}
	}
	d.ends = append(d.ends, n)
}

// row returns the i-th subsumption row, growing the pool by one when i is
// past its end.
func (d *deriver) row(i int) bitvec.Vec {
	if i == len(d.rows) {
		d.rows = append(d.rows, bitvec.New(len(d.u.Events)))
	}
	return d.rows[i]
}

// consumedWithin reports whether every row holds a consumer of c.
func consumedWithin(c *unfolding.Condition, rows []bitvec.Vec) bool {
	for _, past := range rows {
		if !slices.ContainsFunc(c.Consumers, func(g *unfolding.Event) bool { return past.Get(g.ID) }) {
			return false
		}
	}
	return true
}

// boundaryInputTerms implements the paper's special treatment of places that
// are inputs of an instance in next(a'): their MR approximation must not
// cover markings enabling the boundary instance, so it is built as a sum of
// approximations each of which keeps the literal of one immediately-preceding
// instance t_k at its pre-firing value (Section 4.2).  It returns
// (cover, true) when the structural preconditions for the construction hold;
// (nil, true) when the condition provably contributes no state of the slice's
// phase and can be skipped; and (nil, false) when the plain approximation
// must be used instead.
func (d *deriver) boundaryInputTerms(s *Slice, c *unfolding.Condition) (*boolcover.Cover, bool) {
	u := d.u
	var boundary *unfolding.Event
	for _, f := range c.Consumers {
		if s.isBoundary(f) {
			if boundary != nil && boundary != f {
				return nil, false // feeds two boundary instances: fall back
			}
			boundary = f
		}
	}
	if boundary == nil {
		return nil, false
	}
	// The events of the whole segment concurrent to c.
	conc := d.conc
	conc.CopyFrom(d.cz.Future(u.Root))
	d.cz.KeepConcurrent(conc, c)
	// Examine the other input conditions of the boundary instance.
	var concurrentProducers []*unfolding.Event
	for _, b := range boundary.Preset {
		if b == c {
			continue
		}
		// The construction is only sound when the sibling input can only be
		// consumed by the boundary instance itself.
		if len(b.Consumers) != 1 {
			return nil, false
		}
		prod := b.Producer
		switch {
		case d.cz.Future(prod).Get(c.Producer.ID):
			// Already produced when c appears (by c's producer, an event
			// before it or the initial state) and never consumed inside the
			// slice: it does not prevent the boundary from being enabled.
			continue
		case conc.Get(prod.ID):
			// The pre-firing value of prod's signal is only determined by the
			// base code if no other instance of that signal can fire
			// concurrently to c.
			lp := u.Label(prod)
			if lp.IsDummy {
				return nil, false
			}
			conc.Set(prod.ID, false)
			other := conc.Intersects(d.cz.SignalEvents(lp.Signal))
			conc.Set(prod.ID, true)
			if other {
				return nil, false
			}
			concurrentProducers = append(concurrentProducers, prod)
		default:
			return nil, false
		}
	}
	if len(concurrentProducers) == 0 {
		// Every other input of the boundary is marked whenever c is marked:
		// the boundary is enabled throughout c's marked region, so the region
		// contributes no state of this slice's phase.
		return nil, true
	}
	dash := d.concurrentSliceSignals(s, c)
	cover := boolcover.NewCover(u.STG.NumSignals())
	restricted := make([]bool, len(dash))
	for _, tk := range concurrentProducers {
		copy(restricted, dash)
		restricted[u.Label(tk).Signal] = false
		cover.Add(mrCube(c, restricted))
	}
	return cover, true
}

// approximateSlice builds the list of approximation terms of a slice: the ER
// approximation of its entry instance (unless the entry is the initial
// transition) followed by the MR approximations of the approximation set,
// with the boundary-input places handled by the restricted construction of
// Section 4.2.
func (d *deriver) approximateSlice(s *Slice) []*approxTerm {
	u := d.u
	nvars := u.STG.NumSignals()
	var terms []*approxTerm
	addCover := func(cond *unfolding.Condition, cov *boolcover.Cover) {
		if cov.IsEmpty() {
			return
		}
		terms = append(terms, &approxTerm{Slice: s, Cond: cond, Cover: cov})
	}
	addCube := func(cond *unfolding.Condition, cube boolcover.Cube) {
		cov := boolcover.NewCover(nvars)
		cov.Add(cube)
		addCover(cond, cov)
	}
	if !s.Entry.IsRoot {
		addCube(nil, d.erApproxCube(s))
	}
	for _, c := range d.approximationSet(s) {
		if cov, handled := d.boundaryInputTerms(s, c); handled {
			if cov != nil {
				addCover(c, cov)
			}
			continue
		}
		addCube(c, mrCube(c, d.concurrentSliceSignals(s, c)))
	}
	if len(terms) == 0 {
		// Degenerate slice (e.g. the initial slice of a signal that changes
		// immediately): the minimal cut itself is its only state.
		cov := boolcover.NewCover(nvars)
		cov.Add(boolcover.CubeFromMinterm(s.MinCode))
		terms = append(terms, &approxTerm{Slice: s, Cover: cov})
	}
	return terms
}

// approximateSignal builds the approximated on- and off-set covers of one
// signal from its slices.
func (d *deriver) approximateSignal(signal int, on, off []*Slice) *signalApprox {
	sa := &signalApprox{Signal: signal}
	for _, s := range on {
		sa.OnTerms = append(sa.OnTerms, d.approximateSlice(s)...)
	}
	for _, s := range off {
		sa.OffTerms = append(sa.OffTerms, d.approximateSlice(s)...)
	}
	return sa
}
