// Package petri implements marked place/transition Petri nets: the structural
// substrate underneath Signal Transition Graphs.  It provides net
// construction, the token game (enabling and firing), explicit reachability
// analysis with safeness/boundedness checking, and the structural queries
// (presets, postsets, choice places, marked-graph and free-choice tests) used
// by the higher layers.
package petri

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// PlaceID identifies a place of a net by its index.
type PlaceID int

// TransitionID identifies a transition of a net by its index.
type TransitionID int

// Net is a marked Petri net N = <P, T, F, m0>.  Arc weights are always 1
// (ordinary nets), which is the class STGs are defined over.
type Net struct {
	name       string
	placeNames []string
	transNames []string
	placeIDs   map[string]PlaceID // placeNames inverted

	pre  [][]PlaceID // pre[t]: input places of transition t (•t)
	post [][]PlaceID // post[t]: output places of transition t (t•)

	placeOut [][]TransitionID // placeOut[p]: transitions consuming from p (p•)
	placeIn  [][]TransitionID // placeIn[p]: transitions producing into p (•p)

	initial Marking
}

// NewNet returns an empty net with the given name.
func NewNet(name string) *Net {
	return &Net{name: name}
}

// Name returns the net's name.
func (n *Net) Name() string { return n.name }

// SetName renames the net.
func (n *Net) SetName(name string) { n.name = name }

// NumPlaces reports the number of places.
func (n *Net) NumPlaces() int { return len(n.placeNames) }

// NumTransitions reports the number of transitions.
func (n *Net) NumTransitions() int { return len(n.transNames) }

// AddPlace adds a place with the given name and returns its identifier.
// Place names must be unique; AddPlace panics on duplicates.
func (n *Net) AddPlace(name string) PlaceID {
	if _, dup := n.placeIDs[name]; dup {
		panic(fmt.Sprintf("petri: duplicate place name %q", name))
	}
	if n.placeIDs == nil {
		n.placeIDs = map[string]PlaceID{}
	}
	id := PlaceID(len(n.placeNames))
	n.placeIDs[name] = id
	n.placeNames = append(n.placeNames, name)
	n.placeOut = append(n.placeOut, nil)
	n.placeIn = append(n.placeIn, nil)
	return id
}

// Grow reserves room for the given numbers of further places and
// transitions, so that a net whose size is known in advance is built without
// reallocating its tables.
func (n *Net) Grow(places, transitions int) {
	if n.placeIDs == nil {
		n.placeIDs = make(map[string]PlaceID, places)
	}
	n.placeNames = slices.Grow(n.placeNames, places)
	n.placeOut = slices.Grow(n.placeOut, places)
	n.placeIn = slices.Grow(n.placeIn, places)
	n.transNames = slices.Grow(n.transNames, transitions)
	n.pre = slices.Grow(n.pre, transitions)
	n.post = slices.Grow(n.post, transitions)
}

// AddTransition adds a transition with the given name and returns its
// identifier.  Transition names need not be unique (an STG may contain several
// transitions with the same signal label).
func (n *Net) AddTransition(name string) TransitionID {
	id := TransitionID(len(n.transNames))
	n.transNames = append(n.transNames, name)
	n.pre = append(n.pre, nil)
	n.post = append(n.post, nil)
	return id
}

// AddArcPT adds an arc from place p to transition t.
func (n *Net) AddArcPT(p PlaceID, t TransitionID) {
	n.checkPlace(p)
	n.checkTransition(t)
	for _, q := range n.pre[t] {
		if q == p {
			return
		}
	}
	n.pre[t] = append(n.pre[t], p)
	n.placeOut[p] = append(n.placeOut[p], t)
}

// RemoveArcTP removes the arc from transition t to place p, if present.  It
// is the surgical counterpart of AddArcTP used by net rewrites (signal
// insertion redirects a transition's postset through a fresh transition).
func (n *Net) RemoveArcTP(t TransitionID, p PlaceID) {
	n.checkPlace(p)
	n.checkTransition(t)
	n.post[t] = removeID(n.post[t], p)
	n.placeIn[p] = removeID(n.placeIn[p], t)
}

// removeID deletes the first occurrence of id from ids, preserving order.
func removeID[T comparable](ids []T, id T) []T {
	for i, q := range ids {
		if q == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Clone returns a deep copy of the net: rewrites of the copy (adding places,
// transitions or arcs, removing arcs, changing the marking) never affect the
// original.
func (n *Net) Clone() *Net {
	c := &Net{
		name:       n.name,
		placeNames: append([]string(nil), n.placeNames...),
		transNames: append([]string(nil), n.transNames...),
		placeIDs:   maps.Clone(n.placeIDs),
		pre:        cloneIDLists(n.pre),
		post:       cloneIDLists(n.post),
		placeOut:   cloneIDLists(n.placeOut),
		placeIn:    cloneIDLists(n.placeIn),
		initial:    n.initial.Clone(),
	}
	return c
}

func cloneIDLists[T any](lists [][]T) [][]T {
	out := make([][]T, len(lists))
	for i, l := range lists {
		if l != nil {
			out[i] = append([]T(nil), l...)
		}
	}
	return out
}

// AddArcTP adds an arc from transition t to place p.
func (n *Net) AddArcTP(t TransitionID, p PlaceID) {
	n.checkPlace(p)
	n.checkTransition(t)
	for _, q := range n.post[t] {
		if q == p {
			return
		}
	}
	n.post[t] = append(n.post[t], p)
	n.placeIn[p] = append(n.placeIn[p], t)
}

func (n *Net) checkPlace(p PlaceID) {
	if int(p) < 0 || int(p) >= len(n.placeNames) {
		panic(fmt.Sprintf("petri: invalid place id %d", p))
	}
}

func (n *Net) checkTransition(t TransitionID) {
	if int(t) < 0 || int(t) >= len(n.transNames) {
		panic(fmt.Sprintf("petri: invalid transition id %d", t))
	}
}

// PlaceName returns the name of place p.
func (n *Net) PlaceName(p PlaceID) string {
	n.checkPlace(p)
	return n.placeNames[p]
}

// TransitionName returns the name of transition t.
func (n *Net) TransitionName(t TransitionID) string {
	n.checkTransition(t)
	return n.transNames[t]
}

// PlaceByName looks a place up by name.
func (n *Net) PlaceByName(name string) (PlaceID, bool) {
	if id, ok := n.placeIDs[name]; ok {
		return id, true
	}
	return -1, false
}

// Pre returns the input places of transition t (•t).  The returned slice must
// not be modified.
func (n *Net) Pre(t TransitionID) []PlaceID {
	n.checkTransition(t)
	return n.pre[t]
}

// Post returns the output places of transition t (t•).  The returned slice
// must not be modified.
func (n *Net) Post(t TransitionID) []PlaceID {
	n.checkTransition(t)
	return n.post[t]
}

// PlacePre returns the transitions producing into place p (•p).
func (n *Net) PlacePre(p PlaceID) []TransitionID {
	n.checkPlace(p)
	return n.placeIn[p]
}

// PlacePost returns the transitions consuming from place p (p•).
func (n *Net) PlacePost(p PlaceID) []TransitionID {
	n.checkPlace(p)
	return n.placeOut[p]
}

// SetInitial sets the initial marking of the net.
func (n *Net) SetInitial(m Marking) {
	n.initial = m.Clone()
}

// Initial returns a copy of the initial marking.
func (n *Net) Initial() Marking {
	return n.initial.Clone()
}

// MarkInitially adds one token to place p in the initial marking.
func (n *Net) MarkInitially(p PlaceID) {
	n.checkPlace(p)
	if n.initial.tokens == nil {
		n.initial = NewMarking()
	}
	n.initial.Add(p, 1)
}

// IsChoicePlace reports whether place p has more than one output transition.
func (n *Net) IsChoicePlace(p PlaceID) bool {
	return len(n.PlacePost(p)) > 1
}

// IsMergePlace reports whether place p has more than one input transition.
func (n *Net) IsMergePlace(p PlaceID) bool {
	return len(n.PlacePre(p)) > 1
}

// IsMarkedGraph reports whether every place has at most one input and at most
// one output transition (no choice and no merge).
func (n *Net) IsMarkedGraph() bool {
	for p := range n.placeNames {
		if len(n.placeIn[p]) > 1 || len(n.placeOut[p]) > 1 {
			return false
		}
	}
	return true
}

// IsFreeChoice reports whether the net is (extended) free choice: any two
// transitions sharing an input place have identical presets.
func (n *Net) IsFreeChoice() bool {
	for p := range n.placeNames {
		outs := n.placeOut[p]
		if len(outs) <= 1 {
			continue
		}
		first := n.pre[outs[0]]
		for _, t := range outs[1:] {
			if !samePlaceSet(first, n.pre[t]) {
				return false
			}
		}
	}
	return true
}

func samePlaceSet(a, b []PlaceID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]PlaceID(nil), a...)
	bs := append([]PlaceID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Validate performs basic structural sanity checks: every transition has a
// non-empty preset and postset and the initial marking refers to valid places.
func (n *Net) Validate() error {
	for t := range n.transNames {
		if len(n.pre[t]) == 0 {
			return fmt.Errorf("petri: transition %q has an empty preset", n.transNames[t])
		}
		if len(n.post[t]) == 0 {
			return fmt.Errorf("petri: transition %q has an empty postset", n.transNames[t])
		}
	}
	for p := range n.initial.tokens {
		if int(p) < 0 || int(p) >= len(n.placeNames) {
			return fmt.Errorf("petri: initial marking refers to unknown place %d", p)
		}
	}
	return nil
}
