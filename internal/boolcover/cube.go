// Package boolcover implements ternary cubes, single-output covers and a
// two-level heuristic minimiser.  It plays the role of the Espresso step of
// the synthesis flows described in the paper and also provides the cover
// algebra (intersection, containment, sharp, complement, tautology) that the
// approximation and refinement procedures of the unfolding-based method rely
// on.
//
// A cube is a ternary vector over n variables with values 0, 1 and '-'
// (don't care).  A cover is a set of cubes interpreted as their union
// (sum-of-products).
package boolcover

import (
	"encoding/binary"
	"fmt"
	"strings"

	"punt/internal/bitvec"
)

// Trit is a single ternary value of a cube.
type Trit uint8

// The three possible values of a cube position.
const (
	Zero Trit = iota // the variable must be 0
	One              // the variable must be 1
	Dash             // the variable is free (don't care)
)

// The trits as a cube stores them, one per byte.  Two stored trits have
// opposing care values exactly when their XOR is 1: 0^1 = 1, while any pair
// that involves a dash or repeats a value XORs to 0, 2 or 3.
const (
	zero = byte(Zero)
	one  = byte(One)
	dash = byte(Dash)
)

// String renders the trit with the conventional '0', '1', '-' characters.
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "-"
	}
}

// Cube is a product term over a fixed number of boolean variables.
type Cube struct {
	t []byte // one trit per variable
}

// NewCube returns the universal cube (all don't cares) over n variables.
func NewCube(n int) Cube {
	c := Cube{t: make([]byte, n)}
	for i := range c.t {
		c.t[i] = dash
	}
	return c
}

// CubeFromString parses a cube from a string of '0', '1' and '-' characters.
func CubeFromString(s string) (Cube, error) {
	c := Cube{t: make([]byte, len(s))}
	for i, ch := range s {
		switch ch {
		case '0':
			c.t[i] = zero
		case '1':
			c.t[i] = one
		case '-':
			c.t[i] = dash
		default:
			return Cube{}, fmt.Errorf("boolcover: invalid cube character %q", ch)
		}
	}
	return c, nil
}

// MustCube is CubeFromString but panics on malformed input; intended for
// literals in tests and generators.
func MustCube(s string) Cube {
	c, err := CubeFromString(s)
	if err != nil {
		panic(err)
	}
	return c
}

// CubeFromMinterm converts a fully specified binary vector into a cube with no
// don't cares.
func CubeFromMinterm(v bitvec.Vec) Cube {
	c := Cube{t: make([]byte, v.Len())}
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			c.t[i] = one
		} else {
			c.t[i] = zero
		}
	}
	return c
}

// Len reports the number of variables of the cube.
func (c Cube) Len() int { return len(c.t) }

// Get returns the value at position i.
func (c Cube) Get(i int) Trit { return Trit(c.t[i]) }

// Set assigns position i.  It mutates the cube in place.
func (c Cube) Set(i int, v Trit) { c.t[i] = byte(v) }

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	d := Cube{t: make([]byte, len(c.t))}
	copy(d.t, c.t)
	return d
}

// String renders the cube in positional ternary notation.
func (c Cube) String() string {
	var sb strings.Builder
	for _, v := range c.t {
		sb.WriteString(Trit(v).String())
	}
	return sb.String()
}

// Equal reports whether the two cubes are identical.
func (c Cube) Equal(d Cube) bool {
	if len(c.t) != len(d.t) {
		return false
	}
	for i := range c.t {
		if c.t[i] != d.t[i] {
			return false
		}
	}
	return true
}

// Literals reports the number of care (non-dash) positions, i.e. the number of
// literals of the product term.
func (c Cube) Literals() int {
	n := 0
	for _, v := range c.t {
		if v != dash {
			n++
		}
	}
	return n
}

// IsUniverse reports whether the cube has no care positions, covering the
// whole boolean space.
func (c Cube) IsUniverse() bool { return c.Literals() == 0 }

// Contains reports whether every minterm of d is covered by c.
func (c Cube) Contains(d Cube) bool {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	for i := range c.t {
		if c.t[i] != dash && c.t[i] != d.t[i] {
			return false
		}
	}
	return true
}

// CoversMinterm reports whether the fully specified vector v lies inside c.
func (c Cube) CoversMinterm(v bitvec.Vec) bool {
	if len(c.t) != v.Len() {
		panic("boolcover: cube/minterm width mismatch")
	}
	for i := range c.t {
		switch c.t[i] {
		case zero:
			if v.Get(i) {
				return false
			}
		case one:
			if !v.Get(i) {
				return false
			}
		}
	}
	return true
}

// Intersect returns the intersection of c and d.  The second result is false
// if the intersection is empty.
func (c Cube) Intersect(d Cube) (Cube, bool) {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	r := Cube{t: make([]byte, len(c.t))}
	for i := range c.t {
		a, b := c.t[i], d.t[i]
		switch {
		case a == dash:
			r.t[i] = b
		case b == dash:
			r.t[i] = a
		case a == b:
			r.t[i] = a
		default:
			return Cube{}, false
		}
	}
	return r, true
}

// Distance returns the number of variables in which c and d have opposing
// care values.  A distance of 0 means the cubes intersect.
func (c Cube) Distance(d Cube) int {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	n := 0
	for i := range c.t {
		a, b := c.t[i], d.t[i]
		if a != dash && b != dash && a != b {
			n++
		}
	}
	return n
}

// intersects reports whether c and d share a minterm, i.e. Distance(d) == 0,
// without building the intersection.  It compares eight trits per step: a
// byte of the XOR of two 8-byte loads is 1 exactly where the cubes have
// opposing literals, which is where the byte's bit 0 is set and its bit 1
// clear.
func (c Cube) intersects(d Cube) bool {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	const low = 0x0101010101010101 // bit 0 of every byte
	a, b := c.t, d.t
	for len(a) >= 8 {
		x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b)
		if x&^(x>>1)&low != 0 {
			return false
		}
		a, b = a[8:], b[8:]
	}
	for i := range a {
		if a[i]^b[i] == 1 {
			return false
		}
	}
	return true
}

// Supercube returns the smallest cube containing both c and d.
func (c Cube) Supercube(d Cube) Cube {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	r := Cube{t: make([]byte, len(c.t))}
	for i := range c.t {
		if c.t[i] == d.t[i] {
			r.t[i] = c.t[i]
		} else {
			r.t[i] = dash
		}
	}
	return r
}

// Cofactor returns the cofactor of c with respect to cube p (the Shannon
// cofactor generalised to cubes).  The second result is false if c and p do
// not intersect, in which case the cofactor is empty.
func (c Cube) Cofactor(p Cube) (Cube, bool) {
	if len(c.t) != len(p.t) {
		panic("boolcover: cube width mismatch")
	}
	if c.Distance(p) > 0 {
		return Cube{}, false
	}
	r := Cube{t: make([]byte, len(c.t))}
	for i := range c.t {
		if p.t[i] != dash {
			r.t[i] = dash
		} else {
			r.t[i] = c.t[i]
		}
	}
	return r, true
}

// Sharp returns the set difference c \ d expressed as a cover (a disjoint set
// of cubes).  The result is empty if d contains c.
func (c Cube) Sharp(d Cube) []Cube {
	if len(c.t) != len(d.t) {
		panic("boolcover: cube width mismatch")
	}
	if d.Contains(c) {
		return nil
	}
	if c.Distance(d) > 0 {
		return []Cube{c.Clone()}
	}
	var out []Cube
	rem := c.Clone()
	for i := range c.t {
		if d.t[i] == dash || rem.t[i] != dash {
			// Either d does not constrain variable i, or the remainder is
			// already fixed there (if it were fixed to the opposite value the
			// distance check above would have fired; if fixed to the same
			// value the split contributes nothing).
			if rem.t[i] != dash && d.t[i] != dash && rem.t[i] != d.t[i] {
				return []Cube{c.Clone()}
			}
			continue
		}
		piece := rem.Clone()
		if d.t[i] == one {
			piece.t[i] = zero
		} else {
			piece.t[i] = one
		}
		out = append(out, piece)
		rem.t[i] = d.t[i]
	}
	return out
}
