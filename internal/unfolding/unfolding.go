// Package unfolding constructs the STG-unfolding segment of a Signal
// Transition Graph: a finite, complete prefix of the occurrence-net unfolding
// of the underlying Petri net, in which every transition instance carries the
// binary code reached by firing its local configuration (Semenov & Yakovlev,
// the model underlying the paper).  The segment is the partial-order
// representation of the state graph from which the synthesis method of the
// paper derives its covers.
//
// The construction follows McMillan's algorithm: possible extensions are
// processed in order of increasing local-configuration size and an event is a
// cut-off when the state (final marking plus binary code) reached by its
// local configuration has already been produced by a smaller configuration.
// The net must be safe, so a final marking is a set of places.
// Consistency of the state assignment is checked while codes are assigned;
// boundedness is implied by the requirement that the underlying net is safe.
//
// # Builder internals
//
// Segment construction is the hot path of the whole system and the builder is
// organised around three ideas:
//
//   - Incremental state.  An event's cut, place set and binary code are
//     derived from its preset producers instead of replaying the local
//     configuration: cut([e]) = (∪ cut([p])) \ (∪ consumed([p]) ∪ •e) ∪ e•,
//     and the parent code starts from the dominant producer's code and
//     applies only the toggles of the events the other producers add.  The original O(|[e]|)
//     replay is retained behind Options.DebugCheck and cross-validated by the
//     tests.
//
//   - Word-level bit sets.  Local configurations, the co-relation co(c), the
//     per-place candidate sets and the cut/consumed sets are idSet bit sets;
//     intersection, union and difference run a word (64 IDs) at a time, and
//     chooseCoset prunes its candidates by intersecting co-sets with the
//     per-place live-condition sets instead of rescanning condition lists.
//     An event's postset conditions get consecutive IDs, so the co-relation
//     update ORs that range into each concurrent condition's row a word at a
//     time, and tests safeness against a mask of the postset's places.
//
//   - Hashed state tables.  Cut-off detection keys (place set, code) pairs
//     by a 64-bit hash; the place set is a bit vector over the net's places,
//     filled while the cut is walked.  Bucket entries are verified with full
//     equality, so a collision can never produce a wrong cut-off.
//     Possible-extension dedup uses the same scheme with exact fingerprints.
//
// The builder's memory is mostly the co-relation: one row per condition,
// grown geometrically as concurrent conditions are added, C²/64 words at
// most for C conditions.  Per event, the segment keeps the cut as a slice,
// the code and the place set (P/64 words for P places), and the builder the
// cut and consumed sets as bit sets; no per-event map.
//
// # Reading the segment
//
// An Unfolding is immutable once Build returns: no query writes to it, so
// any number of goroutines may read one segment, and the co-relation is
// dropped with the builder.  Cover derivation asks about every event at once
// — an event's future and conflict set, the events of a signal — through a
// Causality index built on demand by Unfolding.Causality, never by Build.
// Its future sets are an E×E bit matrix, E²/64 words for E events, and
// choice adds a conflict matrix of the same size; the segment's local
// configurations are triangular, about E²/128 words.  So the index takes
// about twice their memory without choice and four times with it, plus one
// E-bit mask per signal.
package unfolding

import (
	"fmt"
	"strings"

	"punt/internal/bitvec"
	"punt/internal/petri"
	"punt/internal/stg"
)

// Condition is an instance of a place in the occurrence net.
type Condition struct {
	ID    int
	Place petri.PlaceID
	// Producer is the event whose firing created this condition (the root
	// event for conditions of the initial marking).
	Producer *Event
	// Consumers are the events that consume this condition; more than one
	// consumer means the consumers are in conflict.
	Consumers []*Event
}

// Event is an instance of a transition in the occurrence net.  The root event
// ⊥ represents the initial state of the STG and has no transition.
type Event struct {
	ID         int
	Transition petri.TransitionID
	IsRoot     bool
	Preset     []*Condition
	Postset    []*Condition

	// Local is the local configuration [e]: the set of event IDs that must
	// fire to fire this event, including the event itself, excluding the
	// root.
	Local *idSet
	// Size is |[e]|.
	Size int
	// Code is the binary code reached by firing the local configuration.
	Code bitvec.Vec
	// Cut is the set of conditions marked after firing the local
	// configuration (the minimal stable cut of the event).  The places of
	// the cut, one token each, are the final state Mark([e]): the marking
	// of the original STG reached by firing the local configuration.
	Cut []*Condition
	// places is Mark([e]) as a set over the net's places.  The net is safe,
	// so the set is the whole marking; with Code it keys cut-off detection.
	places bitvec.Vec

	// IsCutoff marks cut-off events; Correspondent is the earlier event (or
	// the root) reaching the same state.
	IsCutoff      bool
	Correspondent *Event

	// label caches the STG label of the transition (zero Label for the root).
	label stg.Label
}

// Unfolding is the STG-unfolding segment.
type Unfolding struct {
	STG        *stg.STG
	Root       *Event
	Events     []*Event     // all events including the root (index = ID)
	Conditions []*Condition // all conditions (index = ID)

	// bySignal[s] lists the events labelled with signal s in ID order.  It is
	// filled as events are created, so a lookup never writes to the segment.
	bySignal [][]*Event
}

// Label returns the STG label of the event's transition.  The root event has
// no label; callers must check IsRoot.
func (u *Unfolding) Label(e *Event) stg.Label { return e.label }

// EventName renders the event as "a+/2:e17" (signal edge plus event id) or
// "⊥" for the root.
func (u *Unfolding) EventName(e *Event) string {
	if e.IsRoot {
		return "⊥"
	}
	return fmt.Sprintf("%s:e%d", u.STG.TransitionString(e.Transition), e.ID)
}

// ConditionName renders the condition as "p3:c12".
func (u *Unfolding) ConditionName(c *Condition) string {
	return fmt.Sprintf("%s:c%d", u.STG.Net().PlaceName(c.Place), c.ID)
}

// NumEvents reports the number of events excluding the root.
func (u *Unfolding) NumEvents() int { return len(u.Events) - 1 }

// NumConditions reports the number of conditions.
func (u *Unfolding) NumConditions() int { return len(u.Conditions) }

// NumCutoffs reports the number of cut-off events.
func (u *Unfolding) NumCutoffs() int {
	n := 0
	for _, e := range u.Events {
		if e.IsCutoff {
			n++
		}
	}
	return n
}

// EventsOfSignal returns all events labelled with the given signal, in either
// direction, ordered by event ID.  The result shares the segment's index; its
// capacity is clipped, so appending to it copies instead of corrupting it.
func (u *Unfolding) EventsOfSignal(signal int) []*Event {
	s := u.bySignal[signal]
	return s[:len(s):len(s)]
}

// EventsOfEdge returns all events labelled with the given signal edge.
func (u *Unfolding) EventsOfEdge(signal int, dir stg.Direction) []*Event {
	var out []*Event
	for _, e := range u.EventsOfSignal(signal) {
		if e.label.Dir == dir {
			out = append(out, e)
		}
	}
	return out
}

// String summarises the unfolding.
func (u *Unfolding) String() string {
	return fmt.Sprintf("unfolding of %q: %d events (%d cut-offs), %d conditions",
		u.STG.Name(), u.NumEvents(), u.NumCutoffs(), u.NumConditions())
}

// Dump renders the full segment in a readable multi-line format (used by the
// stginfo -dump command and in debugging).
func (u *Unfolding) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", u.String())
	for _, e := range u.Events {
		if e.IsRoot {
			fmt.Fprintf(&sb, "  ⊥ -> {")
		} else {
			pres := make([]string, len(e.Preset))
			for i, c := range e.Preset {
				pres[i] = u.ConditionName(c)
			}
			flag := ""
			if e.IsCutoff {
				flag = " [cutoff]"
			}
			fmt.Fprintf(&sb, "  %s%s  code=%s  {%s} -> {", u.EventName(e), flag, e.Code, strings.Join(pres, ","))
		}
		posts := make([]string, len(e.Postset))
		for i, c := range e.Postset {
			posts[i] = u.ConditionName(c)
		}
		fmt.Fprintf(&sb, "%s}\n", strings.Join(posts, ","))
	}
	return sb.String()
}
