package unfolding

import (
	"math/bits"
	"slices"
)

// idSet is a growable bit set over small non-negative integers (event or
// condition IDs).  All binary operations work a word (64 IDs) at a time; the
// builder's hot loops — co-relation maintenance, co-set candidate pruning and
// the incremental cut computation — are built on top of them.
type idSet struct {
	words []uint64
}

func newIDSet() *idSet { return &idSet{} }

// ensure grows s so that it can hold i.  Growth goes through append, so a
// set that keeps growing (a co-relation row gains every new condition
// concurrent with it) reallocates a logarithmic number of times.  Words
// exposed again after andWith shrank the set are zeroed.
func (s *idSet) ensure(i int) {
	w := i/64 + 1
	if n := len(s.words); n < w {
		s.words = slices.Grow(s.words, w-n)[:w]
		clear(s.words[n:])
	}
}

func (s *idSet) add(i int) {
	s.ensure(i)
	s.words[i/64] |= 1 << uint(i%64)
}

// rangeWords returns, in buf's storage, the words of the set {lo, ...,
// hi-1} from word lo/64 on: the operand of orAt(lo/64, ...).
func rangeWords(buf []uint64, lo, hi int) []uint64 {
	buf = buf[:0]
	for lo < hi {
		end := min(hi, (lo/64+1)*64)
		buf = append(buf, ^uint64(0)>>(64-(end-lo))<<uint(lo%64))
		lo = end
	}
	return buf
}

// orAt ORs into s the words of a set that starts at word w0, growing s at
// most once.
func (s *idSet) orAt(w0 int, words []uint64) {
	if len(words) == 0 {
		return
	}
	s.ensure((w0+len(words))*64 - 1)
	for i, w := range words {
		s.words[w0+i] |= w
	}
}

func (s *idSet) remove(i int) {
	if i/64 < len(s.words) {
		s.words[i/64] &^= 1 << uint(i%64)
	}
}

func (s *idSet) has(i int) bool {
	if i/64 >= len(s.words) {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// copyFrom makes s an exact copy of o, reusing s's storage when possible.
func (s *idSet) copyFrom(o *idSet) {
	if o == nil {
		s.words = s.words[:0]
		return
	}
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		s.words = s.words[:len(o.words)]
	}
	copy(s.words, o.words)
}

// orWith adds every element of o to s.
func (s *idSet) orWith(o *idSet) {
	if o != nil {
		s.orAt(0, o.words)
	}
}

// andWith removes from s every element not in o.
func (s *idSet) andWith(o *idSet) {
	if o == nil {
		s.words = s.words[:0]
		return
	}
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &= o.words[i]
	}
	s.words = s.words[:n]
}

// andNotWith removes from s every element of o.
func (s *idSet) andNotWith(o *idSet) {
	if o == nil {
		return
	}
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
}

// intersectInto sets s to a ∩ b without allocating (beyond growing s's
// storage once).  s must not alias a or b.
func (s *idSet) intersectInto(a, b *idSet) {
	if a == nil || b == nil {
		s.words = s.words[:0]
		return
	}
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	} else {
		s.words = s.words[:n]
	}
	for i := 0; i < n; i++ {
		s.words[i] = a.words[i] & b.words[i]
	}
}

func (s *idSet) clone() *idSet {
	c := &idSet{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

func (s *idSet) count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s *idSet) empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s *idSet) forEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (s *idSet) intersects(o *idSet) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// equal reports whether the two sets hold the same elements.
func (s *idSet) equal(o *idSet) bool {
	long, short := s.words, o.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}
