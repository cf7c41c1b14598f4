package boolcover

import "sort"

// Minimize performs heuristic two-level minimisation of the on-set cover,
// using dc as the don't-care set.  It stands in for Espresso in the synthesis
// flows: the result covers every minterm of on, covers no minterm outside
// on ∪ dc, and is irredundant with respect to on.  dc may be nil.
//
// Minimize computes the off-set explicitly by complementation, so it is meant
// for moderate variable counts; synthesis flows that already know the off-set
// should call MinimizeAgainstOff, which never complements.
func Minimize(on, dc *Cover) *Cover {
	if on == nil {
		panic("boolcover: Minimize requires an on-set")
	}
	n := on.Vars()
	if on.IsEmpty() {
		return NewCover(n)
	}
	if dc == nil {
		dc = NewCover(n)
	}
	care := on.Clone()
	care.AddAll(dc)
	off := care.Complement()
	return MinimizeAgainstOff(on, off)
}

// MinimizeAgainstOff minimises the on-set cover against an explicit off-set:
// the result covers every minterm of on, intersects no minterm of off, and
// everything outside on ∪ off is treated as don't-care.  This is the entry
// point used by all synthesis flows (the DC-set of a state graph is the set
// of unreachable binary codes and is never materialised).
func MinimizeAgainstOff(on, off *Cover) *Cover {
	if on == nil || off == nil {
		panic("boolcover: MinimizeAgainstOff requires both covers")
	}
	n := on.Vars()
	if on.IsEmpty() {
		return NewCover(n)
	}
	cur := on.Clone()
	prevCost := cost(cur)
	for iter := 0; iter < 4; iter++ {
		cur = expand(cur, off)
		cur = irredundant(cur, on)
		c := cost(cur)
		if c >= prevCost && iter > 0 {
			break
		}
		prevCost = c
	}
	return cur
}

func cost(c *Cover) int {
	// Primary cost: cube count; secondary: literal count.
	return c.Size()*10000 + c.Literals()
}

// expand greedily raises literals of each cube to don't-care as long as the
// expanded cube stays disjoint from the off-set, then removes cubes contained
// in other single cubes.
func expand(c, off *Cover) *Cover {
	n := c.Vars()
	cubes := make([]Cube, len(c.cubes))
	for i, cb := range c.cubes {
		cubes[i] = cb.Clone()
	}
	// Expand the largest cubes (fewest literals) first so that smaller ones
	// can subsequently be absorbed by single-cube containment.
	sort.SliceStable(cubes, func(i, j int) bool {
		return cubes[i].Literals() < cubes[j].Literals()
	})
	for i := range cubes {
		cb := cubes[i]
		for v := 0; v < n; v++ {
			if cb.Get(v) == Dash {
				continue
			}
			saved := cb.Get(v)
			cb.Set(v, Dash)
			if intersectsCover(cb, off) {
				cb.Set(v, saved)
			}
		}
	}
	out := NewCover(n)
	for _, cb := range cubes {
		out.Add(cb)
	}
	return out
}

func intersectsCover(cb Cube, c *Cover) bool {
	for _, e := range c.cubes {
		if cb.intersects(e) {
			return true
		}
	}
	return false
}

// irredundant removes cubes whose contribution to covering the on-set is
// already provided by the remaining cubes.  A cube may be dropped when every
// on-set minterm inside it is covered by the rest of the cover (anything else
// inside it is off-set-free by construction after expand, hence don't-care).
func irredundant(c, on *Cover) *Cover {
	n := c.Vars()
	cubes := make([]Cube, len(c.cubes))
	copy(cubes, c.cubes)
	// Try to remove the most expensive cubes first.
	order := make([]int, len(cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cubes[order[a]].Literals() > cubes[order[b]].Literals()
	})
	removed := make([]bool, len(cubes))
	for _, idx := range order {
		rest := NewCover(n)
		for j, cb := range cubes {
			if j == idx || removed[j] {
				continue
			}
			rest.cubes = append(rest.cubes, cb)
		}
		onInCube := on.IntersectCube(cubes[idx])
		if rest.ContainsCover(onInCube) {
			removed[idx] = true
		}
	}
	out := NewCover(n)
	for j, cb := range cubes {
		if !removed[j] {
			out.cubes = append(out.cubes, cb)
		}
	}
	return out
}
