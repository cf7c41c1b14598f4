// Package bitvec provides a compact fixed-width bit vector used throughout the
// library to represent binary signal codes, markings of safe Petri nets and
// sets of small integer identifiers.
//
// The zero value of Vec is an empty vector of width 0.  Vectors are mutable;
// use Clone before handing a vector to code that may modify it.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a fixed-width vector of bits.  Bit indices run from 0 to Len()-1.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits.
func New(n int) Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromBools builds a vector from a slice of booleans.
func FromBools(bits []bool) Vec {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// FromString builds a vector from a string of '0' and '1' characters.
// Index 0 of the vector corresponds to the first character.
func FromString(s string) (Vec, error) {
	v := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("bitvec: invalid character %q at position %d", c, i)
		}
	}
	return v, nil
}

// MustFromString is FromString but panics on malformed input.  It is intended
// for tests and package-internal literals.
func MustFromString(s string) Vec {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len reports the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Get reports the value of bit i.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set assigns bit i.
func (v Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip inverts bit i and returns its new value.
func (v Vec) Flip(i int) bool {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
	return v.Get(i)
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Slab returns count zeroed vectors of n bits each that share one backing
// array, so a table of equal-width sets costs two allocations.
func Slab(count, n int) []Vec {
	nw := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*nw)
	out := make([]Vec, count)
	for i := range out {
		out[i] = Vec{n: n, words: words[i*nw : (i+1)*nw : (i+1)*nw]}
	}
	return out
}

// Clone returns an independent copy of the vector.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether the two vectors have the same width and contents.
func (v Vec) Equal(w Vec) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit hash of the vector's width and contents, chaining a
// full-avalanche mix per word (plain FNV-1a cancels the top bit of each word:
// (x^2⁶³)·p = x·p ^ 2⁶³, so adjacent words' MSBs would collide).  Equal
// vectors hash equally; callers that cannot tolerate collisions must verify
// candidates with Equal.
func (v Vec) Hash() uint64 {
	h := Mix64(uint64(v.n) ^ 0x9e3779b97f4a7c15)
	for _, w := range v.words {
		h = Mix64(h ^ w)
	}
	return h
}

// Mix64 is the splitmix64 finaliser: a cheap full-avalanche bijection.  It is
// the mixing primitive shared by every hash table in the library (markings,
// cuts, state keys).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Key returns a compact string usable as a map key.  Two vectors have the same
// key iff they are Equal.
func (v Vec) Key() string {
	var sb strings.Builder
	sb.Grow(len(v.words)*8 + 4)
	fmt.Fprintf(&sb, "%d:", v.n)
	for _, w := range v.words {
		sb.WriteByte(byte(w))
		sb.WriteByte(byte(w >> 8))
		sb.WriteByte(byte(w >> 16))
		sb.WriteByte(byte(w >> 24))
		sb.WriteByte(byte(w >> 32))
		sb.WriteByte(byte(w >> 40))
		sb.WriteByte(byte(w >> 48))
		sb.WriteByte(byte(w >> 56))
	}
	return sb.String()
}

// String renders the vector as a string of '0' and '1' characters with bit 0
// first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Count returns the number of bits set to 1.
func (v Vec) Count() int {
	c := 0
	for _, w := range v.words {
		c += popcount(w)
	}
	return c
}

// Or sets v to the bitwise OR of v and w.  The vectors must have equal length.
func (v Vec) Or(w Vec) {
	v.sameLen(w)
	for i := range v.words {
		v.words[i] |= w.words[i]
	}
}

// And sets v to the bitwise AND of v and w.  The vectors must have equal length.
func (v Vec) And(w Vec) {
	v.sameLen(w)
	for i := range v.words {
		v.words[i] &= w.words[i]
	}
}

// Xor sets v to the bitwise exclusive OR of v and w.  The vectors must have
// equal length.
func (v Vec) Xor(w Vec) {
	v.sameLen(w)
	for i := range v.words {
		v.words[i] ^= w.words[i]
	}
}

// AndNot clears in v every bit that is set in w.
func (v Vec) AndNot(w Vec) {
	v.sameLen(w)
	for i := range v.words {
		v.words[i] &^= w.words[i]
	}
}

// AndNotWords clears in v every bit set in the given words, read as the
// low-order prefix of a vector in this package's layout (bit i in word i/64,
// position i%64).  Words beyond v's own are ignored.  It lets a set kept in
// another representation be subtracted without copying it into a Vec.
func (v Vec) AndNotWords(words []uint64) {
	for i := range min(len(words), len(v.words)) {
		v.words[i] &^= words[i]
	}
}

// OrWords sets in v every bit set in the given words, read like the words of
// AndNotWords.  Words beyond v's own are ignored.
func (v Vec) OrWords(words []uint64) {
	for i := range min(len(words), len(v.words)) {
		v.words[i] |= words[i]
	}
}

// Clear sets every bit of v to 0 without allocating.
func (v Vec) Clear() { clear(v.words) }

// CopyFrom overwrites v with the contents of w without allocating.  The
// vectors must have equal length.
func (v Vec) CopyFrom(w Vec) {
	v.sameLen(w)
	copy(v.words, w.words)
}

// Intersects reports whether v and w share at least one set bit.
func (v Vec) Intersects(w Vec) bool {
	v.sameLen(w)
	for i := range v.words {
		if v.words[i]&w.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit set in w is also set in v.
func (v Vec) ContainsAll(w Vec) bool {
	v.sameLen(w)
	for i := range v.words {
		if w.words[i]&^v.words[i] != 0 {
			return false
		}
	}
	return true
}

func (v Vec) sameLen(w Vec) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
}

// Ones returns the indices of all bits set to 1, in increasing order.
func (v Vec) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := trailingZeros(w)
			idx := wi*wordBits + b
			if idx < v.n {
				out = append(out, idx)
			}
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Next returns the index of the first set bit at or after from, or -1 when
// there is none.  Walking a vector with
//
//	for i := v.Next(0); i >= 0; i = v.Next(i + 1)
//
// visits the indices of Ones without allocating.
func (v Vec) Next(from int) int {
	from = max(from, 0)
	for wi := from / wordBits; wi < len(v.words); wi++ {
		w := v.words[wi]
		if wi == from/wordBits {
			w &^= 1<<(uint(from)%wordBits) - 1
		}
		if w != 0 {
			return wi*wordBits + trailingZeros(w)
		}
	}
	return -1
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
