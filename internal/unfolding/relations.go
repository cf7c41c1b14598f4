package unfolding

import (
	"slices"
	"sort"

	"punt/internal/bitvec"
	"punt/internal/stg"
)

// Before reports whether event e causally precedes event f (e ∈ [f], e ≠ f).
// The root event precedes every other event.
func (u *Unfolding) Before(e, f *Event) bool {
	if e == f {
		return false
	}
	if e.IsRoot {
		return true
	}
	if f.IsRoot {
		return false
	}
	return f.Local.has(e.ID)
}

// InConflict reports whether two events are in structural conflict: their
// local configurations consume some condition through different events, so no
// single run can fire both.
func (u *Unfolding) InConflict(e, f *Event) bool {
	if e == f || e.IsRoot || f.IsRoot {
		return false
	}
	if !u.hasAnyConflict() {
		return false
	}
	if u.Before(e, f) || u.Before(f, e) {
		return false
	}
	key := pairKey(e.ID, f.ID)
	if u.conflictCache == nil {
		u.conflictCache = map[uint64]bool{}
	}
	if v, ok := u.conflictCache[key]; ok {
		return v
	}
	v := u.computeConflict(e, f)
	u.conflictCache[key] = v
	return v
}

// hasAnyConflict reports whether the segment contains any condition with more
// than one consumer; if not, no two events can ever be in conflict.
func (u *Unfolding) hasAnyConflict() bool {
	if u.anyConflict == 0 {
		u.anyConflict = 2
		for _, c := range u.Conditions {
			if len(c.Consumers) > 1 {
				u.anyConflict = 1
				break
			}
		}
	}
	return u.anyConflict == 1
}

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

func (u *Unfolding) computeConflict(e, f *Event) bool {
	// Record, for every condition consumed by [e], which event consumed it;
	// a condition consumed by a different event in [f] is a conflict witness.
	consumedBy := map[int]int{}
	collect := func(ev *Event) {
		for _, c := range ev.Preset {
			consumedBy[c.ID] = ev.ID
		}
	}
	collect(e)
	e.Local.forEach(func(id int) { collect(u.Events[id]) })
	conflict := false
	check := func(ev *Event) {
		for _, c := range ev.Preset {
			if other, ok := consumedBy[c.ID]; ok && other != ev.ID {
				conflict = true
			}
		}
	}
	check(f)
	f.Local.forEach(func(id int) {
		if !conflict {
			check(u.Events[id])
		}
	})
	return conflict
}

// Concurrent reports whether two events are concurrent: not causally ordered
// and not in conflict.
func (u *Unfolding) Concurrent(e, f *Event) bool {
	if e == f || e.IsRoot || f.IsRoot {
		return false
	}
	return !u.Before(e, f) && !u.Before(f, e) && !u.InConflict(e, f)
}

// ConditionBeforeEvent reports whether condition c causally precedes event f:
// some consumer of c lies in [f] ∪ {f}.
func (u *Unfolding) ConditionBeforeEvent(c *Condition, f *Event) bool {
	for _, consumer := range c.Consumers {
		if consumer == f || (!f.IsRoot && f.Local.has(consumer.ID)) {
			return true
		}
	}
	return false
}

// EventBeforeCondition reports whether event f causally precedes condition c:
// f produced c or lies in the local configuration of c's producer.
func (u *Unfolding) EventBeforeCondition(f *Event, c *Condition) bool {
	if c.Producer == f {
		return true
	}
	if f.IsRoot {
		return true
	}
	return c.Producer.Local.has(f.ID)
}

// ConcurrentConditionEvent reports whether condition c and event f are
// concurrent: f can fire while c stays marked.
func (u *Unfolding) ConcurrentConditionEvent(c *Condition, f *Event) bool {
	if f.IsRoot {
		return false
	}
	if u.ConditionBeforeEvent(c, f) || u.EventBeforeCondition(f, c) {
		return false
	}
	if c.Producer != nil && !c.Producer.IsRoot && u.InConflict(c.Producer, f) {
		return false
	}
	return true
}

// ConcurrentConditions reports whether two conditions are concurrent, using
// the co-relation maintained during construction.
func (u *Unfolding) ConcurrentConditions(a, b *Condition) bool {
	if a == b {
		return false
	}
	return u.co[a.ID].has(b.ID)
}

// Next returns next(e): the instances of e's signal that are reachable from e
// with no other instance of that signal in between.  For events of different
// branches of a choice, one successor per branch is returned.
func (u *Unfolding) Next(e *Event) []*Event {
	if e.IsRoot || e.label.IsDummy {
		return nil
	}
	return u.nextOfSignal(e, e.label.Signal)
}

// NextOfSignal returns the instances of the given signal that follow event e
// with no other instance of that signal strictly in between.  It generalises
// Next to entry events of a different signal (in particular the root).
func (u *Unfolding) NextOfSignal(e *Event, signal int) []*Event {
	return u.nextOfSignal(e, signal)
}

func (u *Unfolding) nextOfSignal(e *Event, signal int) []*Event {
	var candidates []*Event
	for _, f := range u.EventsOfSignal(signal) {
		if f == e {
			continue
		}
		if e.IsRoot || u.Before(e, f) {
			candidates = append(candidates, f)
		}
	}
	var out []*Event
	for _, f := range candidates {
		minimal := true
		for _, g := range candidates {
			if g != f && u.Before(g, f) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// First returns first(a): the instances of the signal with no earlier
// instance of the same signal, i.e. the signal's first change on every branch.
func (u *Unfolding) First(signal int) []*Event {
	return u.nextOfSignal(u.Root, signal)
}

// ParentCode returns the binary code of the configuration [e] \ {e}: the code
// of the minimal excitation cut of e.
func (u *Unfolding) ParentCode(e *Event) bitvec.Vec {
	code := e.Code.Clone()
	if !e.IsRoot && !e.label.IsDummy {
		code.Set(e.label.Signal, e.label.Dir == stg.Minus)
	}
	return code
}

// MinExcitationCut returns the cut at which event e first becomes enabled:
// the cut reached by firing [e] \ {e}.
func (u *Unfolding) MinExcitationCut(e *Event) []*Condition {
	if e.IsRoot {
		return append([]*Condition(nil), e.Cut...)
	}
	cut := make([]*Condition, 0, len(e.Cut)+len(e.Preset))
	for _, c := range e.Cut {
		if !slices.Contains(e.Postset, c) {
			cut = append(cut, c)
		}
	}
	cut = append(cut, e.Preset...)
	slices.SortFunc(cut, conditionOrder)
	return cut
}

// MinStableCut returns the cut reached by firing [e]: the minimal stable cut
// of the event.
func (u *Unfolding) MinStableCut(e *Event) []*Condition {
	return append([]*Condition(nil), e.Cut...)
}

// EnabledAt returns the non-root events of the segment whose whole preset is
// contained in the given cut, ordered by event ID.  Like FireAt it runs once
// per state an exact walk visits; cuts and presets are short, so both test
// membership by linear scan instead of building a set per call.
func (u *Unfolding) EnabledAt(cut []*Condition) []*Event {
	var out []*Event
	for _, c := range cut {
		for _, e := range c.Consumers {
			// An enabled event is met once per preset condition; examine it
			// only from its first one.
			if e.Preset[0] != c {
				continue
			}
			ok := true
			for _, b := range e.Preset[1:] {
				if !slices.Contains(cut, b) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, e)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Event) int { return a.ID - b.ID })
	return out
}

// FireAt returns the cut reached from the given cut by firing event e, which
// must be enabled there.
func (u *Unfolding) FireAt(cut []*Condition, e *Event) []*Condition {
	next := make([]*Condition, 0, len(cut)+len(e.Postset))
	for _, c := range cut {
		if !slices.Contains(e.Preset, c) {
			next = append(next, c)
		}
	}
	next = append(next, e.Postset...)
	slices.SortFunc(next, conditionOrder)
	return next
}

func conditionOrder(a, b *Condition) int { return a.ID - b.ID }

// CutHash returns a canonical 64-bit map key for a cut.  Each condition ID is
// avalanche-mixed and the results are combined commutatively, so the hash is
// independent of the cut's order and requires neither sorting nor allocation.
// Two equal cuts always hash equally; distinct cuts collide with probability
// ~2⁻⁶⁴ per pair.
func CutHash(cut []*Condition) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, c := range cut {
		h += bitvec.Mix64(uint64(c.ID) + 1)
	}
	return bitvec.Mix64(h ^ uint64(len(cut)))
}

// SameCut reports whether two cuts contain exactly the same conditions.
// Conditions are canonical objects within an unfolding and every cut this
// package produces is sorted by condition ID, so element-wise identity
// suffices.  It is the verification step for hash tables keyed by CutHash.
func SameCut(a, b []*Condition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
