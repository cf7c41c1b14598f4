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
// Nothing is listed per slice: its sequential conditions are streamed from
// the postsets of the slice events in the entry's future, and the
// approximation set keeps those that precede a boundary instance plus those
// that no such condition subsumes, each decided by bit tests against a
// handful of per-slice rows.  One deriver holds every scratch set and serves
// all signals of a synthesis.
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
	// members holds the IDs of the events that may fire inside the slice,
	// including the entry event itself when it is not the root.
	members bitvec.Vec
}

// deriver holds what cover derivation reads about the segment — the segment,
// its causality index and each event's signal — and the scratch sets of the
// slicing and approximation, which are reused from one condition, slice and
// signal to the next.  One deriver serves every signal of a synthesis; it is
// not safe for concurrent use.
type deriver struct {
	u  *unfolding.Unfolding
	cz *unfolding.Causality
	// signal[id] is the signal labelling event id, or -1 for the root and
	// dummy events.
	signal []int
	// live holds the events that are neither the root nor cut-offs; base is
	// buildSlices' working copy of it.
	live, base bitvec.Vec
	// conc is the set of events concurrent to the event or condition at hand.
	conc bitvec.Vec
	// seq holds the events whose postsets are the sequential conditions of
	// the slice at hand; ahead holds the events no later than one of its
	// boundary instances.
	seq, ahead bitvec.Vec
	// rows are the subsumption rows of the slice's group-1 conditions (see
	// approximationSet); the rows of the i-th one end at rows[ends[i]].
	rows []bitvec.Vec
	ends []int
	// kept is the approximation set approximationSet returns and group2 its
	// subsumption candidates; both are only valid until the next call.
	kept, group2 []*unfolding.Condition
	// openConds holds the group-2 conditions not yet found subsumed, and
	// openProducers their producers; openConds is empty between calls.
	openConds, openProducers bitvec.Vec
	// dash is the signal mask signalsOf fills and returns; it is only valid
	// until the next call.
	dash []bool
}

func newDeriver(u *unfolding.Unfolding, cz *unfolding.Causality) *deriver {
	n := len(u.Events)
	d := &deriver{u: u, cz: cz, signal: make([]int, n), dash: make([]bool, u.STG.NumSignals())}
	sets := bitvec.Slab(6, n)
	d.live, d.base, d.conc, d.seq, d.ahead, d.openProducers = sets[0], sets[1], sets[2], sets[3], sets[4], sets[5]
	d.openConds = bitvec.New(len(u.Conditions))
	for _, e := range u.Events {
		d.signal[e.ID] = -1
		if e.IsRoot {
			continue
		}
		if l := u.Label(e); !l.IsDummy {
			d.signal[e.ID] = l.Signal
		}
		d.live.Set(e.ID, !e.IsCutoff)
	}
	return d
}

// buildSlices partitions the segment into the on- and off-slices of the given
// signal.
func (d *deriver) buildSlices(signal int) (on, off []*Slice) {
	u := d.u
	pos, neg := u.EventsOfEdge(signal, stg.Plus), u.EventsOfEdge(signal, stg.Minus)
	// Every slice of the signal is entered by one of its instances or by the
	// root, and their member sets share one backing array.
	members := bitvec.Slab(len(pos)+len(neg)+1, len(u.Events))
	slab := make([]Slice, len(members))
	slice := func(phase bool, entry *unfolding.Event) *Slice {
		i := len(on) + len(off)
		slab[i] = Slice{Signal: signal, Phase: phase, Entry: entry, members: members[i]}
		d.initSlice(&slab[i])
		return &slab[i]
	}

	// base holds the events that may fire inside some slice of the signal.
	// Other instances of the signal never do, and nor do cut-off events: the
	// states beyond them are represented by the configurations of their
	// correspondents (McMillan's completeness argument), so excluding them
	// loses no states and keeps every visited cut inside the fully expanded
	// part of the segment.
	d.base.CopyFrom(d.live)
	d.base.AndNot(d.cz.SignalEvents(signal))

	for _, e := range pos {
		on = append(on, slice(true, e))
	}
	for _, e := range neg {
		off = append(off, slice(false, e))
	}
	// The initial slice: the phase the signal is in at the initial state,
	// entered by the (virtual) initial transition.
	if u.STG.InitialState().Get(signal) {
		on = append(on, slice(true, u.Root))
	} else {
		off = append(off, slice(false, u.Root))
	}
	return on, off
}

// initSlice completes the slice entered by s.Entry from d.base.  Its events
// are the base events that lie neither beyond a boundary instance, nor before
// the entry, nor on another branch of a choice than the entry, plus the entry
// itself.
func (d *deriver) initSlice(s *Slice) {
	u, cz, entry := d.u, d.cz, s.Entry
	if entry.IsRoot {
		s.MinCut = u.MinStableCut(entry)
		s.MinCode = entry.Code.Clone()
	} else {
		s.MinCut = u.MinExcitationCut(entry)
		s.MinCode = u.ParentCode(entry)
	}
	s.Boundary = cz.Next(entry, s.Signal)

	s.members.CopyFrom(d.base)
	for _, n := range s.Boundary {
		s.members.AndNot(cz.Future(n))
	}
	cz.AndNotPast(s.members, entry)
	s.members.AndNot(cz.Conflict(entry))
	if !entry.IsRoot {
		s.members.Set(entry.ID, true)
	}
}

// sequentialEvents fills d.seq with the producers of the slice's sequential
// conditions — the place instances of the slice that follow the entry, which
// are the candidates of the approximation set: the entry itself and the
// slice events in its future (for the root entry, the root and every slice
// event).  A condition is created with its producer, so walking the postsets
// of d.seq in ID order lists the conditions in ID order.  The set is only
// valid until the next call.
func (d *deriver) sequentialEvents(s *Slice) bitvec.Vec {
	d.seq.CopyFrom(s.members)
	d.seq.And(d.cz.Future(s.Entry))
	if s.Entry.IsRoot {
		d.seq.Set(s.Entry.ID, true)
	}
	return d.seq
}

// containsEvent reports whether the event belongs to the slice (may fire
// inside it).
func (s *Slice) containsEvent(f *unfolding.Event) bool { return s.members.Get(f.ID) }

// isBoundary reports whether the event is one of the slice's boundary
// instances.
func (s *Slice) isBoundary(f *unfolding.Event) bool { return slices.Contains(s.Boundary, f) }
