// Package stg implements Signal Transition Graphs: labelled Petri nets whose
// transitions denote rising (+) and falling (-) edges of circuit signals.
// It provides the STG data model, a programmatic builder, and a reader and
// writer for the astg ".g" text format used by SIS/Petrify-style tools.  An
// STG whose initial binary state is not given gets it from its unfolding
// segment (package unfolding).
package stg

import (
	"fmt"
	"sort"

	"punt/internal/bitvec"
	"punt/internal/petri"
)

// SignalKind classifies a signal of an STG.
type SignalKind int

// Signal kinds.  Input signals are driven by the environment; output and
// internal signals must be implemented by the synthesised circuit.
const (
	Input SignalKind = iota
	Output
	Internal
	Dummy // dummy "signals" label transitions that change no wire
)

// String returns the .g-style section keyword for the kind.
func (k SignalKind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Internal:
		return "internal"
	case Dummy:
		return "dummy"
	default:
		return fmt.Sprintf("SignalKind(%d)", int(k))
	}
}

// Direction is the direction of a signal transition.
type Direction int

// Transition directions.
const (
	Plus  Direction = +1 // rising edge, a+
	Minus Direction = -1 // falling edge, a-
)

// String renders the direction as "+" or "-".
func (d Direction) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Signal is one named signal of the STG.
type Signal struct {
	Name string
	Kind SignalKind
}

// Label is the signal interpretation of a transition: which signal it toggles
// and in which direction.  A transition labelled with a Dummy signal changes
// no signal value.
type Label struct {
	Signal    int // index into the STG's signal list; -1 for unlabelled/dummy ε-transitions
	Dir       Direction
	Instance  int // instance number distinguishing multiple transitions of the same signal edge (a+/1, a+/2, ...)
	IsDummy   bool
	DummyName string // original name for dummy transitions
}

// String renders the label in the conventional "a+/2" notation.
func (l Label) String() string {
	if l.IsDummy {
		return l.DummyName
	}
	return fmt.Sprintf("sig%d%s/%d", l.Signal, l.Dir, l.Instance)
}

// STG is a Signal Transition Graph: a marked Petri net together with a signal
// alphabet, a transition labelling and an initial binary state.
type STG struct {
	net     *petri.Net
	signals []Signal
	byName  map[string]int
	labels  []Label // indexed by petri.TransitionID
	// edges[2s] and edges[2s+1] count the transitions of a+ and a- for
	// signal s, so AddTransition numbers an instance in constant time.
	edges []int32

	initialState    bitvec.Vec
	initialStateSet bool
}

// New returns an empty STG with the given name.
func New(name string) *STG {
	return &STG{
		net:    petri.NewNet(name),
		byName: map[string]int{},
	}
}

// Clone returns a deep copy of the STG: signals, labels, the underlying net
// and the initial state are all copied, so rewrites of the clone (such as the
// CSC resolver's signal insertion) never affect the original.
func (g *STG) Clone() *STG {
	c := &STG{
		net:             g.net.Clone(),
		signals:         append([]Signal(nil), g.signals...),
		byName:          make(map[string]int, len(g.byName)),
		labels:          append([]Label(nil), g.labels...),
		edges:           append([]int32(nil), g.edges...),
		initialStateSet: g.initialStateSet,
	}
	for name, i := range g.byName {
		c.byName[name] = i
	}
	if g.initialStateSet {
		c.initialState = g.initialState.Clone()
	}
	return c
}

// Name returns the STG's name.
func (g *STG) Name() string { return g.net.Name() }

// SetName renames the STG.
func (g *STG) SetName(name string) { g.net.SetName(name) }

// Net exposes the underlying Petri net.  Callers must keep the labelling in
// sync when adding transitions, so prefer the STG-level mutators.
func (g *STG) Net() *petri.Net { return g.net }

// NumSignals reports the number of declared signals (excluding dummies).
func (g *STG) NumSignals() int { return len(g.signals) }

// Signals returns the declared signals in declaration order.
func (g *STG) Signals() []Signal { return g.signals }

// Signal returns the i-th signal.
func (g *STG) Signal(i int) Signal { return g.signals[i] }

// SignalIndex looks a signal up by name.
func (g *STG) SignalIndex(name string) (int, bool) {
	i, ok := g.byName[name]
	return i, ok
}

// AddSignal declares a new signal and returns its index.
func (g *STG) AddSignal(name string, kind SignalKind) int {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("stg: duplicate signal %q", name))
	}
	idx := len(g.signals)
	g.signals = append(g.signals, Signal{Name: name, Kind: kind})
	g.byName[name] = idx
	return idx
}

// OutputSignals returns the indices of all non-input signals (outputs and
// internals), i.e. the signals the circuit must implement.
func (g *STG) OutputSignals() []int {
	var out []int
	for i, s := range g.signals {
		if s.Kind == Output || s.Kind == Internal {
			out = append(out, i)
		}
	}
	return out
}

// InputSignals returns the indices of all input signals.
func (g *STG) InputSignals() []int {
	var out []int
	for i, s := range g.signals {
		if s.Kind == Input {
			out = append(out, i)
		}
	}
	return out
}

// AddPlace adds an explicit place.
func (g *STG) AddPlace(name string) petri.PlaceID {
	return g.net.AddPlace(name)
}

// AddTransition adds a transition labelled with the given signal edge.  The
// instance number is assigned automatically so that repeated edges of the same
// signal get /1, /2, ... suffixes.
func (g *STG) AddTransition(signal int, dir Direction) petri.TransitionID {
	if signal < 0 || signal >= len(g.signals) {
		panic(fmt.Sprintf("stg: invalid signal index %d", signal))
	}
	k := 2 * signal
	if dir == Minus {
		k++
	}
	if k >= len(g.edges) {
		// Room for every signal declared so far, in one allocation.
		g.edges = append(g.edges, make([]int32, max(k+1, 2*len(g.signals))-len(g.edges))...)
	}
	g.edges[k]++
	inst := int(g.edges[k])
	name := g.TransitionLabelString(Label{Signal: signal, Dir: dir, Instance: inst})
	t := g.net.AddTransition(name)
	g.labels = append(g.labels, Label{Signal: signal, Dir: dir, Instance: inst})
	return t
}

// AddDummyTransition adds an unlabelled (ε) transition.
func (g *STG) AddDummyTransition(name string) petri.TransitionID {
	t := g.net.AddTransition(name)
	g.labels = append(g.labels, Label{Signal: -1, IsDummy: true, DummyName: name})
	return t
}

// Label returns the label of transition t.
func (g *STG) Label(t petri.TransitionID) Label {
	return g.labels[t]
}

// TransitionLabelString renders a label with the signal's name, e.g. "a+" or
// "b-/2" when the instance number is above 1.
func (g *STG) TransitionLabelString(l Label) string {
	if l.IsDummy {
		return l.DummyName
	}
	base := g.signals[l.Signal].Name + l.Dir.String()
	if l.Instance > 1 {
		return fmt.Sprintf("%s/%d", base, l.Instance)
	}
	return base
}

// TransitionString renders the name of transition t (signal edge plus
// instance suffix).
func (g *STG) TransitionString(t petri.TransitionID) string {
	return g.TransitionLabelString(g.labels[t])
}

// TransitionsOf returns all transitions labelled with the given signal
// (either direction), in id order.
func (g *STG) TransitionsOf(signal int) []petri.TransitionID {
	var out []petri.TransitionID
	for t, l := range g.labels {
		if !l.IsDummy && l.Signal == signal {
			out = append(out, petri.TransitionID(t))
		}
	}
	return out
}

// AddArcPT, AddArcTP and AddArcTT add arcs; AddArcTT creates an implicit place
// named "<src,dst>" between two transitions.
func (g *STG) AddArcPT(p petri.PlaceID, t petri.TransitionID) { g.net.AddArcPT(p, t) }

// AddArcTP adds an arc from a transition to a place.
func (g *STG) AddArcTP(t petri.TransitionID, p petri.PlaceID) { g.net.AddArcTP(t, p) }

// AddArcTT connects two transitions through a fresh implicit place and returns
// that place.
func (g *STG) AddArcTT(src, dst petri.TransitionID) petri.PlaceID {
	name := "<" + g.net.TransitionName(src) + "," + g.net.TransitionName(dst) + ">"
	// Implicit place names may repeat if the same pair is connected twice; make
	// them unique.
	if _, exists := g.net.PlaceByName(name); exists {
		for i := 2; ; i++ {
			candidate := fmt.Sprintf("%s#%d", name, i)
			if _, exists := g.net.PlaceByName(candidate); !exists {
				name = candidate
				break
			}
		}
	}
	p := g.net.AddPlace(name)
	g.net.AddArcTP(src, p)
	g.net.AddArcPT(p, dst)
	return p
}

// MarkInitially puts a token on place p in the initial marking.
func (g *STG) MarkInitially(p petri.PlaceID) { g.net.MarkInitially(p) }

// SetInitialState sets the initial binary code of the signals (indexed by
// signal declaration order).
func (g *STG) SetInitialState(v bitvec.Vec) {
	if v.Len() != len(g.signals) {
		panic(fmt.Sprintf("stg: initial state has %d bits for %d signals", v.Len(), len(g.signals)))
	}
	g.initialState = v.Clone()
	g.initialStateSet = true
}

// HasInitialState reports whether the initial binary state has been set,
// explicitly or from the unfolding segment.
func (g *STG) HasInitialState() bool { return g.initialStateSet }

// InitialState returns a copy of the initial binary code.  It panics if the
// state is not set; unfolding.DeriveInitialState sets it from the segment.
func (g *STG) InitialState() bitvec.Vec {
	if !g.initialStateSet {
		panic("stg: initial state not set; call SetInitialState or unfolding.DeriveInitialState")
	}
	return g.initialState.Clone()
}

// Validate checks structural well-formedness of the STG: the underlying net is
// valid, and every non-dummy transition carries a valid signal label.
func (g *STG) Validate() error {
	if err := g.net.Validate(); err != nil {
		return err
	}
	if len(g.labels) != g.net.NumTransitions() {
		return fmt.Errorf("stg: %d labels for %d transitions", len(g.labels), g.net.NumTransitions())
	}
	for t, l := range g.labels {
		if l.IsDummy {
			continue
		}
		if l.Signal < 0 || l.Signal >= len(g.signals) {
			return fmt.Errorf("stg: transition %d has invalid signal index %d", t, l.Signal)
		}
	}
	if g.initialStateSet && g.initialState.Len() != len(g.signals) {
		return fmt.Errorf("stg: initial state width %d does not match %d signals",
			g.initialState.Len(), len(g.signals))
	}
	return nil
}

// SignalNames returns the names of all signals in declaration order.
func (g *STG) SignalNames() []string {
	names := make([]string, len(g.signals))
	for i, s := range g.signals {
		names[i] = s.Name
	}
	return names
}

// SortedSignalIndicesByName returns signal indices ordered by signal name;
// useful for deterministic reporting.
func (g *STG) SortedSignalIndicesByName() []int {
	idx := make([]int, len(g.signals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return g.signals[idx[a]].Name < g.signals[idx[b]].Name })
	return idx
}
