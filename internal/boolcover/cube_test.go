package boolcover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"punt/internal/bitvec"
)

func TestCubeFromString(t *testing.T) {
	c := MustCube("01-")
	if c.Len() != 3 || c.Get(0) != Zero || c.Get(1) != One || c.Get(2) != Dash {
		t.Fatalf("parsed cube mismatch: %s", c)
	}
	if c.String() != "01-" {
		t.Fatalf("String = %q", c.String())
	}
	if _, err := CubeFromString("01x"); err == nil {
		t.Fatal("expected error")
	}
	if c.Literals() != 2 {
		t.Fatalf("Literals = %d, want 2", c.Literals())
	}
}

func TestCubeContains(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"---", "010", true},
		{"0--", "010", true},
		{"1--", "010", false},
		{"01-", "010", true},
		{"010", "010", true},
		{"0--", "0--", true},
		{"0--", "---", false},
		{"-1-", "01-", true},
	}
	for _, tc := range cases {
		if got := MustCube(tc.a).Contains(MustCube(tc.b)); got != tc.want {
			t.Errorf("Contains(%s,%s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCubeIntersect(t *testing.T) {
	a := MustCube("0-1")
	b := MustCube("-01")
	r, ok := a.Intersect(b)
	if !ok || r.String() != "001" {
		t.Fatalf("Intersect = %v,%v", r, ok)
	}
	c := MustCube("1--")
	if _, ok := a.Intersect(c); ok {
		t.Fatal("expected empty intersection")
	}
	if a.Distance(c) != 1 {
		t.Fatalf("Distance = %d, want 1", a.Distance(c))
	}
}

func TestCubeSupercube(t *testing.T) {
	a := MustCube("010")
	b := MustCube("011")
	s := a.Supercube(b)
	if s.String() != "01-" {
		t.Fatalf("Supercube = %s", s)
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Fatal("supercube must contain operands")
	}
}

func TestCubeCoversMinterm(t *testing.T) {
	c := MustCube("1-0")
	if !c.CoversMinterm(bitvec.MustFromString("110")) {
		t.Fatal("should cover 110")
	}
	if c.CoversMinterm(bitvec.MustFromString("111")) {
		t.Fatal("should not cover 111")
	}
}

func TestCubeSharpBasic(t *testing.T) {
	c := MustCube("---")
	d := MustCube("1--")
	pieces := c.Sharp(d)
	if len(pieces) != 1 || pieces[0].String() != "0--" {
		t.Fatalf("Sharp = %v", pieces)
	}
	// Sharp with disjoint cube returns the original.
	e := MustCube("0--")
	pieces = e.Sharp(MustCube("1--"))
	if len(pieces) != 1 || !pieces[0].Equal(e) {
		t.Fatalf("Sharp disjoint = %v", pieces)
	}
	// Sharp with containing cube is empty.
	if p := MustCube("01-").Sharp(MustCube("0--")); p != nil {
		t.Fatalf("Sharp contained = %v", p)
	}
}

// enumerate returns all minterms of width n covered by the cube.
func enumerate(c Cube, n int) map[string]bool {
	out := map[string]bool{}
	for m := 0; m < (1 << uint(n)); m++ {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			v.Set(i, m&(1<<uint(i)) != 0)
		}
		if c.CoversMinterm(v) {
			out[v.String()] = true
		}
	}
	return out
}

func randomCube(r *rand.Rand, n int) Cube {
	c := NewCube(n)
	for i := 0; i < n; i++ {
		c.Set(i, Trit(r.Intn(3)))
	}
	return c
}

// TestIntersectsMatchesDistance checks the eight-trits-per-step intersects
// against Distance(d) == 0 on random cube pairs of widths 0 to 130, so every
// byte lane of a step and every length of the tail is exercised.  Half the
// pairs agree wherever both have a literal; the rest get one opposing literal
// at a random position, or are drawn independently.
func TestIntersectsMatchesDistance(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	hits, misses := 0, 0
	for n := 0; n <= 130; n++ {
		for iter := 0; iter < 40; iter++ {
			a, b := randomCube(r, n), randomCube(r, n)
			if iter%4 != 3 {
				for i := 0; i < n; i++ {
					if a.Get(i) != Dash && r.Intn(2) == 0 {
						b.Set(i, a.Get(i))
					} else if a.Get(i) != Dash {
						b.Set(i, Dash)
					}
				}
			}
			if n > 0 && iter%2 == 1 {
				i := r.Intn(n)
				a.Set(i, Zero)
				b.Set(i, One)
			}
			want := a.Distance(b) == 0
			if got := a.intersects(b); got != want {
				t.Fatalf("width %d: %s intersects %s = %v, want %v", n, a, b, got, want)
			}
			if want {
				hits++
			} else {
				misses++
			}
			if allocs := testing.AllocsPerRun(10, func() { a.intersects(b) }); allocs != 0 {
				t.Fatalf("width %d: intersects allocates %v times", n, allocs)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("the pairs are one-sided: %d intersecting, %d disjoint", hits, misses)
	}
}

func TestQuickSharpSemantics(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		a := randomCube(r, n)
		b := randomCube(r, n)
		pieces := a.Sharp(b)
		// Semantics: union of pieces == minterms(a) \ minterms(b),
		// and the pieces are pairwise disjoint.
		want := enumerate(a, n)
		for m := range enumerate(b, n) {
			delete(want, m)
		}
		got := map[string]bool{}
		for i, p := range pieces {
			for m := range enumerate(p, n) {
				if got[m] {
					t.Fatalf("sharp pieces overlap at %s (a=%s b=%s)", m, a, b)
				}
				got[m] = true
			}
			for j := i + 1; j < len(pieces); j++ {
				if _, ok := p.Intersect(pieces[j]); ok {
					t.Fatalf("sharp pieces %s and %s intersect", p, pieces[j])
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("sharp wrong size: a=%s b=%s got=%d want=%d", a, b, len(got), len(want))
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("sharp missing %s for a=%s b=%s", m, a, b)
			}
		}
	}
}

func TestQuickIntersectSemantics(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		a := randomCube(r, n)
		b := randomCube(r, n)
		inter, ok := a.Intersect(b)
		want := map[string]bool{}
		ea, eb := enumerate(a, n), enumerate(b, n)
		for m := range ea {
			if eb[m] {
				want[m] = true
			}
		}
		if !ok {
			if len(want) != 0 {
				t.Fatalf("Intersect(%s,%s) reported empty but %d common minterms", a, b, len(want))
			}
			continue
		}
		got := enumerate(inter, n)
		if len(got) != len(want) {
			t.Fatalf("Intersect(%s,%s) = %s wrong size", a, b, inter)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("Intersect(%s,%s) missing %s", a, b, m)
			}
		}
	}
}

func TestQuickContainsIsPartialOrder(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		r := rand.New(rand.NewSource(seedA ^ seedB<<1))
		a := randomCube(r, 6)
		b := randomCube(r, 6)
		// Antisymmetry: mutual containment implies equality.
		if a.Contains(b) && b.Contains(a) && !a.Equal(b) {
			return false
		}
		// Reflexivity.
		return a.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
