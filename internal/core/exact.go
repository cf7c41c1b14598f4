package core

import (
	"slices"

	"punt/internal/bitvec"
	"punt/internal/boolcover"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// walkSlice plays the token game restricted to a slice of the segment.  It
// explores from the given start cut and code, firing only the slice's events
// that fireable (when non-nil) allows and never firing or crossing the slice
// boundary.  For every visited state it decides whether the state belongs to
// the slice (no boundary instance is excited there); if so, visit is called
// with the state's binary code.  States in which a boundary instance is
// excited are neither reported nor explored further: they belong to the
// opposite phase and are handled by the slices of that phase.
func walkSlice(u *unfolding.Unfolding, s *Slice, startCut []*unfolding.Condition, startCode bitvec.Vec, fireable func(*unfolding.Event) bool, visit func(code bitvec.Vec)) {
	type node struct {
		cut  []*unfolding.Condition
		code bitvec.Vec
	}
	start := node{cut: startCut, code: startCode.Clone()}
	// seen dedups cuts by 64-bit hash with full verification inside each
	// bucket: a collision must never prune a branch of the exact walk.
	seen := map[uint64][][]*unfolding.Condition{unfolding.CutHash(start.cut): {start.cut}}
	visited := func(cut []*unfolding.Condition, h uint64) bool {
		for _, prev := range seen[h] {
			if unfolding.SameCut(prev, cut) {
				return true
			}
		}
		return false
	}
	queue := []node{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		enabled := u.EnabledAt(cur.cut)
		if slices.ContainsFunc(enabled, s.isBoundary) {
			continue
		}
		visit(cur.code)
		for _, e := range enabled {
			if !s.containsEvent(e) {
				continue
			}
			if fireable != nil && !fireable(e) {
				continue
			}
			nextCut := u.FireAt(cur.cut, e)
			nextCode := cur.code.Clone()
			if l := u.Label(e); !l.IsDummy {
				nextCode.Set(l.Signal, l.Dir == stg.Plus)
			}
			h := unfolding.CutHash(nextCut)
			if !visited(nextCut, h) {
				seen[h] = append(seen[h], nextCut)
				queue = append(queue, node{cut: nextCut, code: nextCode})
			}
		}
	}
}

// exactSliceCover enumerates the states encapsulated by the slice and returns
// the exact cover of their binary codes.
func exactSliceCover(u *unfolding.Unfolding, s *Slice) *boolcover.Cover {
	cover := boolcover.NewCover(u.STG.NumSignals())
	walkSlice(u, s, s.MinCut, s.MinCode, nil, func(code bitvec.Vec) {
		cover.Add(boolcover.CubeFromMinterm(code))
	})
	return cover
}

// exactExcitationCover enumerates the states in which the slice's entry
// instance is excited (its excitation region) and returns their exact cover.
// For the root entry it returns nil: the initial transition has no excitation
// region.
func exactExcitationCover(u *unfolding.Unfolding, s *Slice) *boolcover.Cover {
	if s.Entry.IsRoot {
		return nil
	}
	cover := boolcover.NewCover(u.STG.NumSignals())
	walkSlice(u, s, s.MinCut, s.MinCode, func(e *unfolding.Event) bool {
		return e != s.Entry // keep the entry excited: never fire it
	}, func(code bitvec.Vec) {
		cover.Add(boolcover.CubeFromMinterm(code))
	})
	return cover
}

// exactMRCover enumerates the states of the slice in which the given
// condition is marked and returns their exact cover (the exact marked region
// of the place instance, restricted to the slice).
func exactMRCover(u *unfolding.Unfolding, s *Slice, c *unfolding.Condition) *boolcover.Cover {
	cover := boolcover.NewCover(u.STG.NumSignals())
	walkSlice(u, s, c.Producer.Cut, c.Producer.Code, func(e *unfolding.Event) bool {
		return !slices.Contains(c.Consumers, e) // keep the condition marked
	}, func(code bitvec.Vec) {
		cover.Add(boolcover.CubeFromMinterm(code))
	})
	return cover
}
