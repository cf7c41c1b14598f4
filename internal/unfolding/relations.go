package unfolding

import (
	"slices"

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
