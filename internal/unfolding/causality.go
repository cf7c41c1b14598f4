package unfolding

import "punt/internal/bitvec"

// Causality is the causality and conflict relation of a segment as sets of
// event IDs, so that a question about one event against every other event is
// a few word operations instead of one query per pair.  It is built on demand
// by Unfolding.Causality and only reads the segment.  A Causality memoises
// conflict sets as they are asked for, so it is not safe for concurrent use:
// goroutines sharing a segment build one each.
//
// The vectors it returns are views of its own tables: callers must not modify
// them.
type Causality struct {
	u *Unfolding
	// future[e] is the set of events f with e ∈ [f], e included.
	future []bitvec.Vec
	// conflict[e] is the set of events in conflict with e, valid once
	// conflictDone has e's bit; both are nil for a conflict-free segment.
	conflict     []bitvec.Vec
	conflictDone bitvec.Vec
	// signal[s] holds the events labelled with signal s.
	signal []bitvec.Vec
	// none is the empty set; scratch is Next's working set.
	none, scratch bitvec.Vec
}

// Causality builds the causality index of the segment: E²/64 words for E
// events, twice that with choice, and one E/64-word union per postset
// consumer.  It does not check for cancellation: it does far less work than
// Build, and callers check their context between phases.
func (u *Unfolding) Causality() *Causality {
	n := len(u.Events)
	cz := &Causality{u: u, none: bitvec.New(n), scratch: bitvec.New(n)}
	// A consumer is created after the conditions it consumes, and a
	// condition after its producer, so every consumer of e's postset has a
	// higher ID than e: one sweep in decreasing ID order sees every future
	// set it unions already complete.
	cz.future = bitvec.Slab(n, n)
	for id := n - 1; id >= 0; id-- {
		f := cz.future[id]
		f.Set(id, true)
		for _, c := range u.Events[id].Postset {
			for _, g := range c.Consumers {
				f.Or(cz.future[g.ID])
			}
		}
	}
	for _, c := range u.Conditions {
		if len(c.Consumers) > 1 {
			cz.conflict = bitvec.Slab(n, n)
			cz.conflictDone = bitvec.New(n)
			break
		}
	}
	cz.signal = bitvec.Slab(len(u.bySignal), n)
	for s, events := range u.bySignal {
		for _, e := range events {
			cz.signal[s].Set(e.ID, true)
		}
	}
	return cz
}

// Future returns the events f with e ∈ [f], including e itself.  The future
// of the root is every event.
func (cz *Causality) Future(e *Event) bitvec.Vec { return cz.future[e.ID] }

// AndNotPast clears from v the events of e's local configuration [e] and e
// itself (for the root, just the root).  It reads [e] in place.
func (cz *Causality) AndNotPast(v bitvec.Vec, e *Event) {
	v.AndNotWords(e.Local.words)
	v.Set(e.ID, false)
}

// OrPast adds to v the events of e's local configuration [e] and e itself
// (for the root, just the root).  It reads [e] in place.
func (cz *Causality) OrPast(v bitvec.Vec, e *Event) {
	v.OrWords(e.Local.words)
	v.Set(e.ID, true)
}

// Conflict returns the events in structural conflict with e: those whose
// local configuration contains an event g ∉ [e] that shares a preset
// condition with an event of [e], so that no run fires both.  Events
// causally related to e are never in the set, and nor is the root.
//
// Since [e] is e plus the local configurations of the producers of •e, the
// set is the union of the producers' conflict sets and the futures of e's
// rivals for its own preset.
func (cz *Causality) Conflict(e *Event) bitvec.Vec {
	if cz.conflict == nil {
		return cz.none
	}
	v := cz.conflict[e.ID]
	if cz.conflictDone.Get(e.ID) {
		return v
	}
	for _, c := range e.Preset {
		if !c.Producer.IsRoot {
			v.Or(cz.Conflict(c.Producer))
		}
		for _, g := range c.Consumers {
			if g != e {
				v.Or(cz.future[g.ID])
			}
		}
	}
	cz.conflictDone.Set(e.ID, true)
	return v
}

// SignalEvents returns the events labelled with the given signal, in either
// direction.
func (cz *Causality) SignalEvents(signal int) bitvec.Vec { return cz.signal[signal] }

// Next returns next(e) for the signal: the instances of the signal in e's
// future, e excluded, with no other instance of the signal between e and
// them; one per branch of a choice, in ID order.  For the root it is the
// signal's first(a).
func (cz *Causality) Next(e *Event, signal int) []*Event {
	cand := cz.scratch
	cand.CopyFrom(cz.signal[signal])
	cand.And(cz.future[e.ID])
	cand.Set(e.ID, false)
	var out []*Event
	// Causal predecessors have lower IDs, so the walk meets each minimal
	// instance before the instances in its future, which it then drops.
	for id := cand.Next(0); id >= 0; id = cand.Next(id + 1) {
		out = append(out, cz.u.Events[id])
		cand.AndNot(cz.future[id])
	}
	return out
}

// KeepConcurrent clears from v every event that is not concurrent to
// condition c, leaving those that can fire while c stays marked.  The
// cleared events are the root, c's consumers and their futures, c's producer
// with its past, and the events in conflict with the producer.
func (cz *Causality) KeepConcurrent(v bitvec.Vec, c *Condition) {
	v.Set(cz.u.Root.ID, false)
	for _, g := range c.Consumers {
		v.AndNot(cz.future[g.ID])
	}
	cz.AndNotPast(v, c.Producer)
	v.AndNot(cz.Conflict(c.Producer))
}
