package stg

import (
	"fmt"
	"strconv"
	"strings"

	"punt/internal/bitvec"
	"punt/internal/petri"
)

// Builder offers a compact fluent API for constructing STGs in Go code.  It is
// the programmatic counterpart of the .g text format: signal edges are
// referred to by strings like "a+", "b-", or "a+/2" for repeated edges, and
// places by any other identifier.
type Builder struct {
	g *STG
	// named transitions: "a+/1" -> id
	trans map[string]petri.TransitionID
	err   error
}

// NewBuilder returns a builder for a new STG with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: New(name), trans: map[string]petri.TransitionID{}}
}

// Err returns the first error recorded during building, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Inputs declares input signals.
func (b *Builder) Inputs(names ...string) *Builder {
	for _, n := range names {
		b.g.AddSignal(n, Input)
	}
	return b
}

// Outputs declares output signals.
func (b *Builder) Outputs(names ...string) *Builder {
	for _, n := range names {
		b.g.AddSignal(n, Output)
	}
	return b
}

// Internals declares internal signals.
func (b *Builder) Internals(names ...string) *Builder {
	for _, n := range names {
		b.g.AddSignal(n, Internal)
	}
	return b
}

// ParseEdge splits a transition reference such as "req+/2" into signal name,
// direction and instance (0 if not given).  A signal name starts with a
// letter or '_' and continues with letters, digits and "_.[]".  A toggle
// edge ("a~") is not a signal edge.
func ParseEdge(s string) (signal string, dir Direction, instance int, ok bool) {
	edge, inst, hasInst := strings.Cut(s, "/")
	if hasInst {
		if inst == "" || strings.TrimLeft(inst, "0123456789") != "" {
			return "", 0, 0, false
		}
		instance, _ = strconv.Atoi(inst)
	}
	if len(edge) < 2 || !isNameStart(edge[0]) {
		return "", 0, 0, false
	}
	signal = edge[:len(edge)-1]
	for i := 1; i < len(signal); i++ {
		if c := signal[i]; !isNameStart(c) && !('0' <= c && c <= '9') && c != '.' && c != '[' && c != ']' {
			return "", 0, 0, false
		}
	}
	switch edge[len(edge)-1] {
	case '+':
		dir = Plus
	case '-':
		dir = Minus
	default:
		return "", 0, 0, false
	}
	return signal, dir, instance, true
}

func isNameStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// transition resolves or creates the transition named by ref ("a+", "a+/2", or
// a dummy name).
func (b *Builder) transition(ref string) petri.TransitionID {
	if t, ok := b.trans[ref]; ok {
		return t
	}
	sig, dir, inst, ok := ParseEdge(ref)
	if !ok {
		b.fail("stg builder: %q is not a signal edge", ref)
		return 0
	}
	idx, found := b.g.SignalIndex(sig)
	if !found {
		b.fail("stg builder: signal %q not declared", sig)
		return 0
	}
	t := b.g.AddTransition(idx, dir)
	got := b.g.Label(t)
	if inst != 0 && got.Instance != inst {
		// The caller requested a specific instance number; honour it as an
		// alias so subsequent references by either name resolve identically.
		b.trans[fmt.Sprintf("%s%s/%d", sig, dir, inst)] = t
	}
	canonical := b.g.TransitionString(t)
	b.trans[canonical] = t
	b.trans[ref] = t
	if got.Instance == 1 {
		b.trans[sig+dir.String()] = t
	}
	return t
}

// Edge pre-declares a transition instance and returns the builder (useful when
// an edge participates only in arcs written target-first).
func (b *Builder) Edge(ref string) *Builder {
	b.transition(ref)
	return b
}

// Arc adds causality src -> dst between two signal edges via an implicit
// place.
func (b *Builder) Arc(src, dst string) *Builder {
	s := b.transition(src)
	d := b.transition(dst)
	if b.err == nil {
		b.g.AddArcTT(s, d)
	}
	return b
}

// ArcMarked adds causality src -> dst via an implicit place that carries a
// token in the initial marking.
func (b *Builder) ArcMarked(src, dst string) *Builder {
	s := b.transition(src)
	d := b.transition(dst)
	if b.err == nil {
		p := b.g.AddArcTT(s, d)
		b.g.MarkInitially(p)
	}
	return b
}

// Place adds an explicit place.
func (b *Builder) Place(name string) *Builder {
	if _, exists := b.g.Net().PlaceByName(name); !exists {
		b.g.AddPlace(name)
	}
	return b
}

// PlaceArc adds an arc between an explicit place and a signal edge (or vice
// versa), determined by which argument names a declared place.
func (b *Builder) PlaceArc(from, to string) *Builder {
	if p, ok := b.g.Net().PlaceByName(from); ok {
		b.g.AddArcPT(p, b.transition(to))
		return b
	}
	if p, ok := b.g.Net().PlaceByName(to); ok {
		b.g.AddArcTP(b.transition(from), p)
		return b
	}
	b.fail("stg builder: neither %q nor %q is a declared place", from, to)
	return b
}

// Mark puts an initial token on the named explicit place.
func (b *Builder) Mark(place string) *Builder {
	p, ok := b.g.Net().PlaceByName(place)
	if !ok {
		b.fail("stg builder: unknown place %q", place)
		return b
	}
	b.g.MarkInitially(p)
	return b
}

// MarkBetween puts an initial token on the implicit place between two edges;
// the arc must already exist (created by Arc).
func (b *Builder) MarkBetween(src, dst string) *Builder {
	s, okS := b.trans[src]
	d, okD := b.trans[dst]
	if !okS || !okD {
		b.fail("stg builder: MarkBetween(%q,%q): unknown edge", src, dst)
		return b
	}
	name := fmt.Sprintf("<%s,%s>", b.g.TransitionString(s), b.g.TransitionString(d))
	p, ok := b.g.Net().PlaceByName(name)
	if !ok {
		b.fail("stg builder: no implicit place between %q and %q", src, dst)
		return b
	}
	b.g.MarkInitially(p)
	return b
}

// InitialState sets the initial binary state from a string over the declared
// signal order, e.g. "0101".
func (b *Builder) InitialState(bits string) *Builder {
	v, err := bitvec.FromString(bits)
	if err != nil {
		b.fail("stg builder: %v", err)
		return b
	}
	if v.Len() != b.g.NumSignals() {
		b.fail("stg builder: initial state %q has %d bits for %d signals", bits, v.Len(), b.g.NumSignals())
		return b
	}
	b.g.SetInitialState(v)
	return b
}

// InitialStateByName sets the initial value of individual named signals; all
// unlisted signals default to 0.
func (b *Builder) InitialStateByName(ones ...string) *Builder {
	v := bitvec.New(b.g.NumSignals())
	for _, name := range ones {
		idx, ok := b.g.SignalIndex(name)
		if !ok {
			b.fail("stg builder: unknown signal %q in initial state", name)
			return b
		}
		v.Set(idx, true)
	}
	b.g.SetInitialState(v)
	return b
}

// Build validates and returns the constructed STG.
func (b *Builder) Build() (*STG, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose structure is fixed.
func (b *Builder) MustBuild() *STG {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Chain adds arcs src->e1->e2->...->en for a sequence of edges.
func (b *Builder) Chain(edges ...string) *Builder {
	for i := 0; i+1 < len(edges); i++ {
		b.Arc(edges[i], edges[i+1])
	}
	return b
}

// Describe returns a short human-readable summary of the built STG (used by
// the CLI tools).
func Describe(g *STG) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "STG %q: %d signals (%d in, %d out/int), %d transitions, %d places\n",
		g.Name(), g.NumSignals(), len(g.InputSignals()), len(g.OutputSignals()),
		g.Net().NumTransitions(), g.Net().NumPlaces())
	return sb.String()
}
