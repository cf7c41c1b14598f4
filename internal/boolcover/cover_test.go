package boolcover

import (
	"math/rand"
	"testing"

	"punt/internal/bitvec"
)

func enumerateCover(c *Cover) map[string]bool {
	out := map[string]bool{}
	n := c.Vars()
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

func randomCover(r *rand.Rand, n, maxCubes int) *Cover {
	c := NewCover(n)
	k := 1 + r.Intn(maxCubes)
	for i := 0; i < k; i++ {
		c.Add(randomCube(r, n))
	}
	return c
}

func TestCoverAddAbsorbs(t *testing.T) {
	c := NewCover(3)
	c.Add(MustCube("0--"))
	c.Add(MustCube("01-")) // contained in previous, must be absorbed
	if c.Size() != 1 {
		t.Fatalf("Size = %d, want 1", c.Size())
	}
}

func TestCoverLiterals(t *testing.T) {
	c := CoverFromStrings("1--", "--1")
	if c.Literals() != 2 {
		t.Fatalf("Literals = %d, want 2", c.Literals())
	}
}

func TestCoverComplement(t *testing.T) {
	c := CoverFromStrings("1--", "--1")
	comp := c.Complement()
	// complement of a+c over (a,b,c) is a'c'
	if !comp.Equivalent(CoverFromStrings("0-0")) {
		t.Fatalf("Complement = %s", comp)
	}
	// c + complement(c) must be a tautology.
	u := c.Clone()
	u.AddAll(comp)
	if !u.IsTautology() {
		t.Fatal("cover plus complement must be tautology")
	}
	if c.Intersects(comp) {
		t.Fatal("cover must not intersect its complement")
	}
}

func TestCoverTautology(t *testing.T) {
	if !CoverFromStrings("1--", "0--").IsTautology() {
		t.Fatal("x + x' is a tautology")
	}
	if CoverFromStrings("1--", "01-").IsTautology() {
		t.Fatal("not a tautology")
	}
	if NewCover(3).IsTautology() {
		t.Fatal("empty cover is not a tautology")
	}
	if !Universe(3).IsTautology() {
		t.Fatal("universe is a tautology")
	}
}

func TestCoverContainsCube(t *testing.T) {
	c := CoverFromStrings("1-0", "11-")
	if !c.ContainsCube(MustCube("110")) {
		t.Fatal("110 is covered")
	}
	if c.ContainsCube(MustCube("0--")) {
		t.Fatal("0-- is not covered")
	}
	// Containment that needs more than one cube: 1-0 + 1-1 contains 1--.
	d := CoverFromStrings("1-0", "1-1")
	if !d.ContainsCube(MustCube("1--")) {
		t.Fatal("multi-cube containment failed")
	}
}

func TestCoverEquivalent(t *testing.T) {
	a := CoverFromStrings("1-0", "1-1")
	b := CoverFromStrings("1--")
	if !a.Equivalent(b) {
		t.Fatal("covers are equivalent")
	}
	c := CoverFromStrings("1-0")
	if a.Equivalent(c) {
		t.Fatal("covers are not equivalent")
	}
}

func TestQuickComplementSemantics(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 60; iter++ {
		c := randomCover(r, n, 4)
		comp := c.Complement()
		e := enumerateCover(c)
		ec := enumerateCover(comp)
		for m := range e {
			if ec[m] {
				t.Fatalf("minterm %s in both cover and complement", m)
			}
		}
		if len(e)+len(ec) != 1<<uint(n) {
			t.Fatalf("cover(%d) + complement(%d) != 2^%d", len(e), len(ec), n)
		}
	}
}

func TestQuickSharpCoverSemantics(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 60; iter++ {
		a := randomCover(r, n, 3)
		b := randomCover(r, n, 3)
		s := a.Sharp(b)
		ea, eb, es := enumerateCover(a), enumerateCover(b), enumerateCover(s)
		for m := range ea {
			want := !eb[m]
			if es[m] != want {
				t.Fatalf("sharp wrong at %s", m)
			}
		}
		for m := range es {
			if !ea[m] || eb[m] {
				t.Fatalf("sharp produced spurious minterm %s", m)
			}
		}
	}
}

func TestQuickIntersectCoverSemantics(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 60; iter++ {
		a := randomCover(r, n, 3)
		b := randomCover(r, n, 3)
		i := a.Intersect(b)
		ea, eb, ei := enumerateCover(a), enumerateCover(b), enumerateCover(i)
		for m := range ea {
			if eb[m] && !ei[m] {
				t.Fatalf("intersection missing %s", m)
			}
		}
		for m := range ei {
			if !ea[m] || !eb[m] {
				t.Fatalf("intersection spurious %s", m)
			}
		}
		if a.Intersects(b) != (len(ei) > 0) {
			t.Fatal("Intersects predicate disagrees with enumeration")
		}
	}
}

// TestIntersectionTestsDoNotAllocate pins the emptiness tests the cover
// derivation runs per pair of terms, and espresso per expansion step, to
// zero allocations on intersecting and on disjoint inputs.
func TestIntersectionTestsDoNotAllocate(t *testing.T) {
	on := CoverFromStrings("1-0", "01-")
	cb := MustCube("1-0")
	for _, tc := range []struct {
		name string
		d    *Cover
		want bool
	}{
		{"intersecting", CoverFromStrings("001", "--0"), true},
		{"disjoint", CoverFromStrings("001", "111"), false},
	} {
		if got := on.Intersects(tc.d); got != tc.want {
			t.Errorf("%s: Cover.Intersects = %v, want %v", tc.name, got, tc.want)
		}
		if got := intersectsCover(cb, tc.d); got != tc.want {
			t.Errorf("%s: intersectsCover = %v, want %v", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { on.Intersects(tc.d) }); n != 0 {
			t.Errorf("%s: Cover.Intersects allocates %v times", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { intersectsCover(cb, tc.d) }); n != 0 {
			t.Errorf("%s: intersectsCover allocates %v times", tc.name, n)
		}
	}
}
