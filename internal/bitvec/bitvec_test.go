package bitvec

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d should be 0", i)
		}
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(100)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(99, true)
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	if v.Flip(63) {
		t.Errorf("Flip(63) should return false after clearing")
	}
	if v.Get(63) {
		t.Errorf("bit 63 should now be clear")
	}
	v.Set(0, false)
	if v.Get(0) {
		t.Errorf("bit 0 should be clear")
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	s := "0110010111010001"
	v, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != s {
		t.Fatalf("round trip mismatch: %s vs %s", v.String(), s)
	}
	if _, err := FromString("01x"); err == nil {
		t.Fatal("expected error for invalid character")
	}
}

func TestKeyEquality(t *testing.T) {
	a := MustFromString("10110")
	b := MustFromString("10110")
	c := MustFromString("10111")
	if a.Key() != b.Key() {
		t.Fatal("equal vectors must have equal keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different vectors must have different keys")
	}
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal misbehaves")
	}
	d := New(6)
	if a.Equal(d) {
		t.Fatal("vectors of different widths must not be equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromString("1010")
	b := a.Clone()
	b.Set(0, false)
	if !a.Get(0) {
		t.Fatal("Clone must not alias the original")
	}
}

func TestSetOps(t *testing.T) {
	a := MustFromString("1100")
	b := MustFromString("1010")
	c := a.Clone()
	c.Or(b)
	if c.String() != "1110" {
		t.Fatalf("Or = %s, want 1110", c.String())
	}
	c = a.Clone()
	c.And(b)
	if c.String() != "1000" {
		t.Fatalf("And = %s, want 1000", c.String())
	}
	c = a.Clone()
	c.AndNot(b)
	if c.String() != "0100" {
		t.Fatalf("AndNot = %s, want 0100", c.String())
	}
	c = a.Clone()
	c.Xor(b)
	if c.String() != "0110" {
		t.Fatalf("Xor = %s, want 0110", c.String())
	}
	if !a.Intersects(b) {
		t.Fatal("a and b intersect")
	}
	if !MustFromString("1110").ContainsAll(a) {
		t.Fatal("1110 contains 1100")
	}
	if MustFromString("0110").ContainsAll(a) {
		t.Fatal("0110 does not contain 1100")
	}
}

func TestOnes(t *testing.T) {
	v := New(70)
	for _, i := range []int{3, 64, 69} {
		v.Set(i, true)
	}
	ones := v.Ones()
	want := []int{3, 64, 69}
	if len(ones) != len(want) {
		t.Fatalf("Ones = %v, want %v", ones, want)
	}
	for i := range want {
		if ones[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", ones, want)
		}
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		v := FromBools(bits)
		w, err := FromString(v.String())
		if err != nil {
			return false
		}
		return v.Equal(w) && v.Key() == w.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesOnes(t *testing.T) {
	f := func(bits []bool) bool {
		v := FromBools(bits)
		return v.Count() == len(v.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	v := New(4)
	v.Get(4)
}

func TestQuickHashMatchesEquality(t *testing.T) {
	f := func(a, b []bool) bool {
		va, vb := FromBools(a), FromBools(b)
		if va.Equal(vb) && va.Hash() != vb.Hash() {
			return false
		}
		// The hash must agree with Key-based equality on clones.
		return va.Hash() == va.Clone().Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDiscriminates(t *testing.T) {
	// Not a guarantee, but the common cases must not collide: single-bit
	// differences and width differences.
	seen := map[uint64]string{}
	for n := 0; n <= 130; n++ {
		v := New(n)
		for i := -1; i < n; i++ {
			if i >= 0 {
				v = New(n)
				v.Set(i, true)
			}
			h := v.Hash()
			if prev, ok := seen[h]; ok && prev != v.Key() {
				t.Fatalf("hash collision between %q and %q", prev, v.Key())
			}
			seen[h] = v.Key()
		}
	}
}

// nextWalk collects the set bits of v through Next.
func nextWalk(v Vec) []int {
	var out []int
	for i := v.Next(0); i >= 0; i = v.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

func TestQuickNextMatchesOnes(t *testing.T) {
	f := func(bits []bool, edges uint8) bool {
		v := FromBools(bits)
		// Force bits on and next to word boundaries, where a walk is most
		// likely to skip or repeat an index.
		for _, i := range []int{0, 63, 64, 127, 128, len(bits) - 1} {
			if i >= 0 && i < v.Len() && edges&1 != 0 {
				v.Set(i, true)
			}
			edges >>= 1
		}
		return slices.Equal(nextWalk(v), v.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, true)
		}
		if got := nextWalk(v); !slices.Equal(got, v.Ones()) {
			t.Fatalf("n=%d: Next walk %v, Ones %v", n, got, v.Ones())
		}
		if n > 0 && (v.Next(n-1) != n-1 || v.Next(n) != -1 || v.Next(-5) != 0) {
			t.Fatalf("n=%d: Next at the ends: %d %d %d", n, v.Next(n-1), v.Next(n), v.Next(-5))
		}
	}
}

func TestCopyFromAndNotWords(t *testing.T) {
	src := MustFromString("10110")
	dst := New(5)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom = %s, want %s", dst, src)
	}
	dst.Set(1, true)
	if src.Get(1) {
		t.Fatal("CopyFrom must not alias its source")
	}
	// A prefix longer than the vector is clipped to the vector's words.
	dst.AndNotWords([]uint64{0b00101, ^uint64(0)})
	if dst.String() != "01010" {
		t.Fatalf("AndNotWords = %s, want 01010", dst)
	}
	wide := New(130)
	for i := 0; i < 130; i++ {
		wide.Set(i, true)
	}
	wide.AndNotWords([]uint64{^uint64(0)}) // clears the first word only
	if wide.Count() != 66 || wide.Get(63) || !wide.Get(64) {
		t.Fatalf("AndNotWords on a prefix: %d bits left", wide.Count())
	}
}

func TestOrWordsAndClear(t *testing.T) {
	v := MustFromString("10000")
	// A prefix longer than the vector is clipped to the vector's words.
	v.OrWords([]uint64{0b10100, ^uint64(0)})
	if v.String() != "10101" {
		t.Fatalf("OrWords = %s, want 10101", v)
	}
	wide := New(130)
	wide.OrWords([]uint64{0, 1 << 1}) // sets bit 65 only
	if wide.Count() != 1 || !wide.Get(65) {
		t.Fatalf("OrWords on a prefix: %v", wide.Ones())
	}
	wide.Set(129, true)
	allocs := testing.AllocsPerRun(100, wide.Clear)
	if wide.Count() != 0 || wide.Len() != 130 {
		t.Fatalf("Clear left %v of width %d", wide.Ones(), wide.Len())
	}
	if allocs != 0 {
		t.Fatalf("Clear allocates %v times per run", allocs)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, op := range map[string]func(v, w Vec){
		"Or":       Vec.Or,
		"CopyFrom": Vec.CopyFrom,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic on a length mismatch", name)
				}
			}()
			op(New(4), New(5))
		}()
	}
}

func TestSlabVectorsAreIndependent(t *testing.T) {
	slab := Slab(3, 70)
	slab[1].Set(69, true)
	slab[1].Set(0, true)
	if slab[0].Count() != 0 || slab[2].Count() != 0 || slab[1].Count() != 2 {
		t.Fatalf("slab rows share bits: %d %d %d", slab[0].Count(), slab[1].Count(), slab[2].Count())
	}
	for _, v := range slab {
		if v.Len() != 70 {
			t.Fatalf("slab row width %d, want 70", v.Len())
		}
	}
}

func TestNextAndCopyFromDoNotAllocate(t *testing.T) {
	v, w := New(300), New(300)
	for _, i := range []int{0, 63, 64, 200, 299} {
		w.Set(i, true)
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		v.CopyFrom(w)
		for i := v.Next(0); i >= 0; i = v.Next(i + 1) {
			n++
		}
	})
	if allocs != 0 {
		t.Fatalf("Next/CopyFrom allocate %v times per run", allocs)
	}
	if n == 0 {
		t.Fatal("the walk visited nothing")
	}
}
