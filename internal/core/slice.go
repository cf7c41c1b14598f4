// Package core implements the paper's contribution: synthesis of
// speed-independent circuits directly from the STG-unfolding segment.
//
// For every output signal the segment is partitioned into slices — portions
// of the partial order bounded by a minimal cut (where an instance of the
// signal becomes excited) and the cuts just before the next change of the
// signal.  Each slice represents a connected set of state-graph states that
// belong to the signal's on-set or off-set.  Covers for these state sets are
// obtained either exactly (by enumerating the states encapsulated in the
// slice) or approximately (from the binary codes of local configurations,
// weakening the literals of concurrent signals), with the approximated covers
// refined only where the on- and off-set covers interfere.  slice.go builds the
// slices, exact.go enumerates their states (Section 4.1 of the paper),
// approx.go approximates their covers (Section 4.2) and refine.go refines the
// approximations where they interfere (Section 4.3).
//
// Slices and approximations are set algebra over the segment's causality
// index (unfolding.Causality): a slice's events are a per-signal base set
// minus the futures of its boundary instances, the entry's past and the
// entry's conflict set; the events concurrent to a condition are a slice (or
// the whole segment) minus the futures of its consumers, its producer's past
// and its producer's conflict set.  Each is a few passes over E/64 words.
package core

import (
	"slices"

	"punt/internal/bitvec"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// Slice is a slice of the STG-unfolding segment for one phase of one signal:
// the states where the signal's implied value is 1 (an on-slice, entered by a
// rising instance or by the initial state with the signal at 1) or 0 (an
// off-slice).
type Slice struct {
	// Signal is the index of the signal the slice belongs to.
	Signal int
	// Phase is true for on-slices (implied value 1) and false for off-slices.
	Phase bool
	// Entry is the entry transition of the slice: an instance of the signal
	// edge that enters the phase, or the root event for the initial slice.
	Entry *unfolding.Event
	// MinCut is the minimal cut of the slice: the cut at which the entry
	// instance becomes excited (or the initial cut for the root entry).
	MinCut []*unfolding.Condition
	// MinCode is the binary code of the minimal cut.
	MinCode bitvec.Vec
	// Boundary are the instances of the signal's next change: firing any of
	// them leaves the slice.  The states in which a boundary instance is
	// excited belong to the opposite phase and are excluded from the slice.
	Boundary []*unfolding.Event
	// Events are the events that may fire inside the slice, including the
	// entry event itself when it is not the root, in ID order.
	Events []*unfolding.Event
	// members holds the IDs of Events, so the exact walks test membership in
	// constant time.
	members bitvec.Vec
	// Conditions are the place instances of the slice that are sequential to
	// the entry event; they are the candidates of the approximation set.
	Conditions []*unfolding.Condition
}

// deriver holds what cover derivation reads about the segment — the segment
// and its causality index — and the scratch buffers of the approximation,
// which are reused from one condition to the next.
type deriver struct {
	u  *unfolding.Unfolding
	cz *unfolding.Causality
	// conc is the set of events concurrent to the event or condition at hand.
	conc bitvec.Vec
	// dash is the signal mask signalsOf fills and returns; it is only valid
	// until the next call.
	dash []bool
}

func newDeriver(u *unfolding.Unfolding, cz *unfolding.Causality) *deriver {
	return &deriver{u: u, cz: cz, conc: bitvec.New(len(u.Events)), dash: make([]bool, u.STG.NumSignals())}
}

// buildSlices partitions the segment into the on- and off-slices of the given
// signal.
func (d *deriver) buildSlices(signal int) (on, off []*Slice) {
	u := d.u
	initial := u.STG.InitialState().Get(signal)

	// base holds the events that may fire inside some slice of the signal.
	// Other instances of the signal never do, and nor do cut-off events: the
	// states beyond them are represented by the configurations of their
	// correspondents (McMillan's completeness argument), so excluding them
	// loses no states and keeps every visited cut inside the fully expanded
	// part of the segment.
	base := d.cz.Future(u.Root).Clone()
	base.Set(u.Root.ID, false)
	base.AndNot(d.cz.SignalEvents(signal))
	for _, f := range u.Events {
		if f.IsCutoff {
			base.Set(f.ID, false)
		}
	}

	for _, e := range u.EventsOfEdge(signal, stg.Plus) {
		on = append(on, d.newSlice(base, signal, true, e))
	}
	for _, e := range u.EventsOfEdge(signal, stg.Minus) {
		off = append(off, d.newSlice(base, signal, false, e))
	}
	// The initial slice: the phase the signal is in at the initial state,
	// entered by the (virtual) initial transition.
	if initial {
		on = append(on, d.newSlice(base, signal, true, u.Root))
	} else {
		off = append(off, d.newSlice(base, signal, false, u.Root))
	}
	return on, off
}

// newSlice constructs the slice entered by the given event for the given
// signal phase.  Its events are the base events that lie neither beyond a
// boundary instance, nor before the entry, nor on another branch of a choice
// than the entry, plus the entry itself.
func (d *deriver) newSlice(base bitvec.Vec, signal int, phase bool, entry *unfolding.Event) *Slice {
	u, cz := d.u, d.cz
	s := &Slice{Signal: signal, Phase: phase, Entry: entry}
	if entry.IsRoot {
		s.MinCut = u.MinStableCut(entry)
		s.MinCode = entry.Code.Clone()
	} else {
		s.MinCut = u.MinExcitationCut(entry)
		s.MinCode = u.ParentCode(entry)
	}
	s.Boundary = cz.Next(entry, signal)

	s.members = base.Clone()
	for _, n := range s.Boundary {
		s.members.AndNot(cz.Future(n))
	}
	cz.AndNotPast(s.members, entry)
	s.members.AndNot(cz.Conflict(entry))
	if !entry.IsRoot {
		s.members.Set(entry.ID, true)
	}
	s.Events = make([]*unfolding.Event, 0, s.members.Count())
	for id := s.members.Next(0); id >= 0; id = s.members.Next(id + 1) {
		s.Events = append(s.Events, u.Events[id])
	}

	// The approximation-set candidates are the conditions sequential to the
	// entry: produced by the entry itself or by a slice event in its future
	// (for the root entry, every condition produced by the root or by a
	// slice event qualifies).  A condition is created with its producer, so
	// walking the producers in ID order lists the conditions in ID order.
	if entry.IsRoot {
		s.Conditions = append(s.Conditions, entry.Postset...)
	}
	future := cz.Future(entry)
	for _, f := range s.Events {
		if future.Get(f.ID) {
			s.Conditions = append(s.Conditions, f.Postset...)
		}
	}
	return s
}

// containsEvent reports whether the event belongs to the slice (may fire
// inside it).
func (s *Slice) containsEvent(f *unfolding.Event) bool { return s.members.Get(f.ID) }

// isBoundary reports whether the event is one of the slice's boundary
// instances.
func (s *Slice) isBoundary(f *unfolding.Event) bool { return slices.Contains(s.Boundary, f) }
