package boolcover

import (
	"sort"
	"strings"

	"punt/internal/bitvec"
)

// Cover is a single-output sum-of-products: a set of cubes over the same
// variable set, interpreted as their union.
type Cover struct {
	n     int
	cubes []Cube
}

// NewCover returns an empty cover over n variables.
func NewCover(n int) *Cover {
	return &Cover{n: n}
}

// CoverFromStrings builds a cover from positional-notation cube strings.
func CoverFromStrings(cubes ...string) *Cover {
	if len(cubes) == 0 {
		panic("boolcover: CoverFromStrings needs at least one cube")
	}
	c := NewCover(len(cubes[0]))
	for _, s := range cubes {
		c.Add(MustCube(s))
	}
	return c
}

// Universe returns the cover consisting of the single universal cube.
func Universe(n int) *Cover {
	c := NewCover(n)
	c.Add(NewCube(n))
	return c
}

// Vars reports the number of variables of the cover.
func (c *Cover) Vars() int { return c.n }

// Size reports the number of cubes in the cover.
func (c *Cover) Size() int { return len(c.cubes) }

// IsEmpty reports whether the cover contains no cubes (the constant-0
// function).
func (c *Cover) IsEmpty() bool { return len(c.cubes) == 0 }

// Cubes returns the cubes of the cover.  The returned slice must not be
// modified.
func (c *Cover) Cubes() []Cube { return c.cubes }

// Add appends a cube, skipping it if an existing cube already contains it.
func (c *Cover) Add(cb Cube) {
	if cb.Len() != c.n {
		panic("boolcover: cube width does not match cover")
	}
	for _, e := range c.cubes {
		if e.Contains(cb) {
			return
		}
	}
	c.cubes = append(c.cubes, cb)
}

// AddAll appends every cube of d (with single-cube containment filtering).
func (c *Cover) AddAll(d *Cover) {
	for _, cb := range d.cubes {
		c.Add(cb)
	}
}

// Clone returns an independent copy of the cover.
func (c *Cover) Clone() *Cover {
	d := NewCover(c.n)
	d.cubes = make([]Cube, len(c.cubes))
	for i, cb := range c.cubes {
		d.cubes[i] = cb.Clone()
	}
	return d
}

// CoversMinterm reports whether some cube of the cover contains the fully
// specified vector v.
func (c *Cover) CoversMinterm(v bitvec.Vec) bool {
	for _, cb := range c.cubes {
		if cb.CoversMinterm(v) {
			return true
		}
	}
	return false
}

// Literals reports the total number of literals across all cubes, the quality
// metric ("LitCnt") used in the paper's Table 1.
func (c *Cover) Literals() int {
	n := 0
	for _, cb := range c.cubes {
		n += cb.Literals()
	}
	return n
}

// String renders the cover as newline-free list of cubes sorted
// lexicographically, e.g. "1--+-1-".
func (c *Cover) String() string {
	if len(c.cubes) == 0 {
		return "<empty>"
	}
	strs := make([]string, len(c.cubes))
	for i, cb := range c.cubes {
		strs[i] = cb.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, " + ")
}

// Intersect returns the cover representing the intersection (boolean AND) of
// c and d.
func (c *Cover) Intersect(d *Cover) *Cover {
	out := NewCover(c.n)
	for _, a := range c.cubes {
		for _, b := range d.cubes {
			if r, ok := a.Intersect(b); ok {
				out.Add(r)
			}
		}
	}
	return out
}

// IntersectCube returns the intersection of the cover with a single cube.
func (c *Cover) IntersectCube(cb Cube) *Cover {
	out := NewCover(c.n)
	for _, a := range c.cubes {
		if r, ok := a.Intersect(cb); ok {
			out.Add(r)
		}
	}
	return out
}

// Intersects reports whether c and d share at least one minterm.
func (c *Cover) Intersects(d *Cover) bool {
	for _, a := range c.cubes {
		for _, b := range d.cubes {
			if a.intersects(b) {
				return true
			}
		}
	}
	return false
}

// SharpCube returns the cover c \ cb.
func (c *Cover) SharpCube(cb Cube) *Cover {
	out := NewCover(c.n)
	for _, a := range c.cubes {
		for _, piece := range a.Sharp(cb) {
			out.Add(piece)
		}
	}
	return out
}

// Sharp returns the cover c \ d.
func (c *Cover) Sharp(d *Cover) *Cover {
	out := c.Clone()
	for _, cb := range d.cubes {
		out = out.SharpCube(cb)
		if out.IsEmpty() {
			break
		}
	}
	return out
}

// Complement returns the complement of the cover over the full boolean space.
func (c *Cover) Complement() *Cover {
	return Universe(c.n).Sharp(c)
}

// Cofactor returns the cofactor of the cover with respect to cube p.
func (c *Cover) Cofactor(p Cube) *Cover {
	out := NewCover(c.n)
	for _, a := range c.cubes {
		if r, ok := a.Cofactor(p); ok {
			out.cubes = append(out.cubes, r)
		}
	}
	return out
}

// IsTautology reports whether the cover covers the entire boolean space.
func (c *Cover) IsTautology() bool {
	return tautology(c.cubes, c.n)
}

// ContainsCube reports whether every minterm of cb is covered by the cover.
func (c *Cover) ContainsCube(cb Cube) bool {
	return tautology(c.Cofactor(cb).cubes, c.n)
}

// ContainsCover reports whether every minterm of d is covered by c.
func (c *Cover) ContainsCover(d *Cover) bool {
	for _, cb := range d.cubes {
		if !c.ContainsCube(cb) {
			return false
		}
	}
	return true
}

// Equivalent reports whether c and d cover exactly the same set of minterms.
func (c *Cover) Equivalent(d *Cover) bool {
	return c.ContainsCover(d) && d.ContainsCover(c)
}

// tautology implements the recursive unate-style tautology check.
func tautology(cubes []Cube, n int) bool {
	if len(cubes) == 0 {
		return false
	}
	for _, cb := range cubes {
		if cb.Literals() == 0 {
			return true
		}
	}
	// Select the most binate variable (appearing in both phases); fall back
	// to the most frequently constrained variable.
	bestVar, bestScore := -1, -1
	for v := 0; v < n; v++ {
		zeros, ones := 0, 0
		for _, cb := range cubes {
			switch cb.Get(v) {
			case Zero:
				zeros++
			case One:
				ones++
			}
		}
		if zeros+ones == 0 {
			continue
		}
		score := zeros + ones
		if zeros > 0 && ones > 0 {
			score += len(cubes) // prefer binate variables
		}
		if score > bestScore {
			bestScore, bestVar = score, v
		}
	}
	if bestVar < 0 {
		// No cube constrains any variable but none is the universe: impossible
		// because a cube with zero literals is the universe; defensive answer.
		return false
	}
	p0 := NewCube(n)
	p0.Set(bestVar, Zero)
	p1 := NewCube(n)
	p1.Set(bestVar, One)
	return tautology(cofactorCubes(cubes, p0, n), n) && tautology(cofactorCubes(cubes, p1, n), n)
}

func cofactorCubes(cubes []Cube, p Cube, n int) []Cube {
	var out []Cube
	for _, cb := range cubes {
		if r, ok := cb.Cofactor(p); ok {
			out = append(out, r)
		}
	}
	return out
}
