package unfolding

import (
	"math/rand"
	"testing"
)

func setOf(ids ...int) *idSet {
	s := newIDSet()
	for _, i := range ids {
		s.add(i)
	}
	return s
}

func elems(s *idSet) []int {
	var out []int
	s.forEach(func(i int) { out = append(out, i) })
	return out
}

func TestIDSetWordOps(t *testing.T) {
	a := setOf(1, 3, 64, 100, 200)
	b := setOf(3, 64, 99, 200, 300)

	got := a.clone()
	got.andWith(b)
	if want := setOf(3, 64, 200); !got.equal(want) {
		t.Fatalf("andWith = %v", elems(got))
	}

	got = a.clone()
	got.andNotWith(b)
	if want := setOf(1, 100); !got.equal(want) {
		t.Fatalf("andNotWith = %v", elems(got))
	}

	got = a.clone()
	got.orWith(b)
	if want := setOf(1, 3, 64, 99, 100, 200, 300); !got.equal(want) {
		t.Fatalf("orWith = %v", elems(got))
	}

	dst := newIDSet()
	dst.intersectInto(a, b)
	if want := setOf(3, 64, 200); !dst.equal(want) {
		t.Fatalf("intersectInto = %v", elems(dst))
	}
	// Reuse must not leak previous contents.
	dst.intersectInto(setOf(7), setOf(7, 8))
	if want := setOf(7); !dst.equal(want) {
		t.Fatalf("intersectInto reuse = %v", elems(dst))
	}

	if !a.intersects(b) {
		t.Fatal("a and b intersect")
	}
	if setOf(1, 2).intersects(setOf(3, 400)) {
		t.Fatal("disjoint sets must not intersect")
	}
	if a.count() != 5 {
		t.Fatalf("count = %d", a.count())
	}
	if !newIDSet().empty() || a.empty() {
		t.Fatal("empty misreports")
	}
}

func TestIDSetEqualAcrossLengths(t *testing.T) {
	a := setOf(1, 2)
	b := setOf(1, 2)
	b.ensure(500) // trailing zero words must not affect equality
	if !a.equal(b) || !b.equal(a) {
		t.Fatal("sets with different storage lengths but equal elements must be equal")
	}
	b.add(500)
	if a.equal(b) || b.equal(a) {
		t.Fatal("sets differing in a high element must not be equal")
	}
}

// TestIDSetRandomizedAgainstMap cross-checks the word-level operations against
// a reference map implementation.
func TestIDSetRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a, b := newIDSet(), newIDSet()
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < 50; i++ {
			x := rng.Intn(300)
			a.add(x)
			ma[x] = true
			y := rng.Intn(300)
			b.add(y)
			mb[y] = true
		}
		inter := newIDSet()
		inter.intersectInto(a, b)
		diff := a.clone()
		diff.andNotWith(b)
		union := a.clone()
		union.orWith(b)
		for x := 0; x < 300; x++ {
			if inter.has(x) != (ma[x] && mb[x]) {
				t.Fatalf("iter %d: intersect wrong at %d", iter, x)
			}
			if diff.has(x) != (ma[x] && !mb[x]) {
				t.Fatalf("iter %d: andNot wrong at %d", iter, x)
			}
			if union.has(x) != (ma[x] || mb[x]) {
				t.Fatalf("iter %d: or wrong at %d", iter, x)
			}
		}
	}
}

// TestIDSetOrRange checks rangeWords plus orAt, the co-relation update's
// word-level form of adding an event's postset, against adding the IDs one
// by one, for ranges that start, end and cross at word boundaries.
func TestIDSetOrRange(t *testing.T) {
	var buf []uint64
	for _, lo := range []int{0, 1, 63, 64, 65, 127, 200} {
		for n := 1; n <= 130; n++ {
			got, want := setOf(5, 300), setOf(5, 300)
			buf = rangeWords(buf, lo, lo+n)
			got.orAt(lo/64, buf)
			for i := lo; i < lo+n; i++ {
				want.add(i)
			}
			if !got.equal(want) {
				t.Fatalf("[%d,%d): got %v, want %v", lo, lo+n, elems(got), elems(want))
			}
		}
	}
}

// TestIDSetRegrowZeroes checks that growing a set again after andWith shrank
// it does not bring back the elements the shrink dropped.
func TestIDSetRegrowZeroes(t *testing.T) {
	s := setOf(1, 70, 130)
	s.andWith(setOf(1))
	s.ensure(200)
	s.remove(1)
	if !s.empty() {
		t.Fatalf("regrown set holds %v, want nothing", elems(s))
	}
	s.add(199)
	if want := setOf(199); !s.equal(want) {
		t.Fatalf("got %v, want [199]", elems(s))
	}
}
