// Package stategraph builds the explicit State Graph (State Transition
// Diagram) of a Signal Transition Graph: the reachability graph of the
// underlying Petri net with a consistent binary code attached to every state.
// It implements the general correctness checks of the paper (consistent state
// assignment, boundedness via safeness, semi-modularity / output persistency)
// and the architecture-specific checks (USC/CSC), and extracts the per-signal
// excitation/quiescent regions and on/off-set covers that drive logic
// synthesis.
package stategraph

import (
	"context"
	"errors"
	"fmt"

	"punt/internal/bitvec"
	"punt/internal/boolcover"
	"punt/internal/faultinject"
	"punt/internal/petri"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// ErrStateLimit is returned when the exploration exceeds the configured
// maximum number of states (the "state explosion" guard used by the
// experiment harness).
var ErrStateLimit = errors.New("stategraph: state limit exceeded")

// InconsistencyError reports a violation of the consistent state assignment
// criterion discovered while building the state graph.
type InconsistencyError struct {
	Transition string // the transition whose firing is inconsistent
	Detail     string
}

func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("stategraph: inconsistent state assignment at %s: %s", e.Transition, e.Detail)
}

// State is one vertex of the state graph: a reachable marking together with
// the binary code of all signals.
type State struct {
	Marking petri.Marking
	Code    bitvec.Vec
}

// Edge is one labelled arc of the state graph.
type Edge struct {
	From, To   int
	Transition petri.TransitionID
}

// Graph is the explicit state graph.  State 0 is the initial state.
type Graph struct {
	STG    *stg.STG
	States []State
	Edges  []Edge
	// Succ[i] lists indices into Edges of the arcs leaving state i.
	Succ [][]int

	// index maps hash(marking, code) to the states with that hash.  Bucket
	// entries are verified with full marking/code equality, so hashing never
	// merges distinct states.
	index map[uint64][]int
}

// lookup returns the index of the state equal to s under the precomputed
// state hash, or -1.
func (sg *Graph) lookup(h uint64, s State) int {
	for _, i := range sg.index[h] {
		if sg.States[i].Code.Equal(s.Code) && sg.States[i].Marking.Equal(s.Marking) {
			return i
		}
	}
	return -1
}

func (sg *Graph) insert(h uint64, idx int) {
	sg.index[h] = append(sg.index[h], idx)
}

// Options configures state graph construction.
type Options struct {
	// MaxStates aborts construction with ErrStateLimit once exceeded
	// (0 = unlimited).
	MaxStates int
	// Bound is the place-token bound; 0 means 1-safe, which is what STGs
	// require.
	Bound int
	// Progress, when non-nil, is called periodically with the number of
	// states discovered so far.  It must be cheap; it runs inside the
	// exploration loop.
	Progress func(states int)
}

// cancelCheckInterval is how many states are expanded between context
// cancellation checks.
const cancelCheckInterval = 1024

// Build explores the reachable state space of the STG.  An STG without an
// initial binary state gets the one its unfolding segment implies
// (unfolding.DeriveInitialState), which needs a 1-safe net.  Build fails on
// unbounded nets, on violations of consistent state assignment, when the
// state limit is exceeded and when ctx is cancelled.
func Build(ctx context.Context, g *stg.STG, opts Options) (*Graph, error) {
	if !g.HasInitialState() {
		if err := unfolding.DeriveInitialState(ctx, g); err != nil {
			return nil, err
		}
	}
	bound := opts.Bound
	if bound <= 0 {
		bound = 1
	}
	net := g.Net()
	sg := &Graph{STG: g, index: map[uint64][]int{}}

	initial := State{Marking: net.Initial(), Code: g.InitialState()}
	sg.States = append(sg.States, initial)
	sg.Succ = append(sg.Succ, nil)
	sg.insert(stateHash(initial), 0)

	// markingCode detects the second flavour of inconsistency: the same
	// marking reached with two different binary codes.  It is keyed by the
	// marking's hash; bucket entries carry the marking so collisions are
	// resolved by full equality.
	type markingEntry struct {
		marking petri.Marking
		code    bitvec.Vec
	}
	markingCode := map[uint64][]markingEntry{
		initial.Marking.Hash(): {{marking: initial.Marking, code: initial.Code}},
	}

	queue := []int{0}
	expanded := 0
	for len(queue) > 0 {
		if expanded%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := faultinject.Check(ctx, faultinject.OpStategraphExpand); err != nil {
				return nil, err
			}
			if opts.Progress != nil {
				opts.Progress(len(sg.States))
			}
		}
		expanded++
		cur := queue[0]
		queue = queue[1:]
		st := sg.States[cur]
		for _, t := range net.EnabledTransitions(st.Marking) {
			label := g.Label(t)
			nextCode := st.Code.Clone()
			if !label.IsDummy {
				val := st.Code.Get(label.Signal)
				switch label.Dir {
				case stg.Plus:
					if val {
						return nil, &InconsistencyError{
							Transition: g.TransitionString(t),
							Detail: fmt.Sprintf("signal %q is already 1 in state %s",
								g.Signal(label.Signal).Name, st.Code),
						}
					}
					nextCode.Set(label.Signal, true)
				case stg.Minus:
					if !val {
						return nil, &InconsistencyError{
							Transition: g.TransitionString(t),
							Detail: fmt.Sprintf("signal %q is already 0 in state %s",
								g.Signal(label.Signal).Name, st.Code),
						}
					}
					nextCode.Set(label.Signal, false)
				}
			}
			nextMarking := net.Fire(st.Marking, t)
			for _, p := range nextMarking.Places() {
				if nextMarking.Tokens(p) > bound {
					return nil, fmt.Errorf("stategraph: %w firing %s", petri.ErrUnbounded, g.TransitionString(t))
				}
			}
			next := State{Marking: nextMarking, Code: nextCode}
			mh := nextMarking.Hash() // hashed once, reused for both tables below
			foundMarking := false
			for _, entry := range markingCode[mh] {
				if !entry.marking.Equal(nextMarking) {
					continue
				}
				foundMarking = true
				if !entry.code.Equal(nextCode) {
					return nil, &InconsistencyError{
						Transition: g.TransitionString(t),
						Detail:     "the same marking is reachable with two different binary codes",
					}
				}
				break
			}
			if !foundMarking {
				markingCode[mh] = append(markingCode[mh], markingEntry{marking: nextMarking, code: nextCode})
			}
			h := stateHashFrom(mh, next.Code)
			idx := sg.lookup(h, next)
			if idx < 0 {
				idx = len(sg.States)
				if opts.MaxStates > 0 && idx >= opts.MaxStates {
					return nil, ErrStateLimit
				}
				sg.States = append(sg.States, next)
				sg.Succ = append(sg.Succ, nil)
				sg.insert(h, idx)
				queue = append(queue, idx)
			}
			e := len(sg.Edges)
			sg.Edges = append(sg.Edges, Edge{From: cur, To: idx, Transition: t})
			sg.Succ[cur] = append(sg.Succ[cur], e)
		}
	}
	return sg, nil
}

func stateHash(s State) uint64 {
	return stateHashFrom(s.Marking.Hash(), s.Code)
}

// stateHashFrom combines an already computed marking hash with the code, so
// the exploration loop hashes each successor's marking exactly once.
func stateHashFrom(markingHash uint64, code bitvec.Vec) uint64 {
	const prime = 1099511628211
	return (markingHash ^ code.Hash()) * prime
}

// NumStates reports the number of reachable states.
func (sg *Graph) NumStates() int { return len(sg.States) }

// NumEdges reports the number of state graph arcs.
func (sg *Graph) NumEdges() int { return len(sg.Edges) }

// EnabledTransitionsAt returns the transitions enabled in state i.
func (sg *Graph) EnabledTransitionsAt(i int) []petri.TransitionID {
	var out []petri.TransitionID
	for _, e := range sg.Succ[i] {
		out = append(out, sg.Edges[e].Transition)
	}
	return out
}

// SignalExcited reports whether some transition of the given signal and
// direction is enabled in state i.
func (sg *Graph) SignalExcited(i, signal int, dir stg.Direction) bool {
	for _, e := range sg.Succ[i] {
		l := sg.STG.Label(sg.Edges[e].Transition)
		if !l.IsDummy && l.Signal == signal && l.Dir == dir {
			return true
		}
	}
	return false
}

// ImpliedValue returns the next (implied) value of the signal in state i: the
// value the implementation logic must produce.  A rising excitation implies 1,
// a falling excitation implies 0, otherwise the current value is kept.
func (sg *Graph) ImpliedValue(i, signal int) bool {
	if sg.SignalExcited(i, signal, stg.Plus) {
		return true
	}
	if sg.SignalExcited(i, signal, stg.Minus) {
		return false
	}
	return sg.States[i].Code.Get(signal)
}

// ExcitationRegion returns the indices of the states in which a transition of
// the given signal and direction is enabled (the ER of the paper).
func (sg *Graph) ExcitationRegion(signal int, dir stg.Direction) []int {
	var out []int
	for i := range sg.States {
		if sg.SignalExcited(i, signal, dir) {
			out = append(out, i)
		}
	}
	return out
}

// QuiescentRegion returns the indices of the states in which the signal is
// stable at the given value (QR of the paper): the signal holds the value and
// no transition of the signal is enabled.
func (sg *Graph) QuiescentRegion(signal int, value bool) []int {
	var out []int
	for i, s := range sg.States {
		if s.Code.Get(signal) == value &&
			!sg.SignalExcited(i, signal, stg.Plus) && !sg.SignalExcited(i, signal, stg.Minus) {
			out = append(out, i)
		}
	}
	return out
}

// OnSet returns the cover of the binary codes of all states whose implied
// value of the signal is 1 (ER(+a) ∪ QR(a=1)).
func (sg *Graph) OnSet(signal int) *boolcover.Cover {
	c := boolcover.NewCover(sg.STG.NumSignals())
	for i, s := range sg.States {
		if sg.ImpliedValue(i, signal) {
			c.Add(boolcover.CubeFromMinterm(s.Code))
		}
	}
	return c
}

// OffSet returns the cover of the binary codes of all states whose implied
// value of the signal is 0.
func (sg *Graph) OffSet(signal int) *boolcover.Cover {
	c := boolcover.NewCover(sg.STG.NumSignals())
	for i, s := range sg.States {
		if !sg.ImpliedValue(i, signal) {
			c.Add(boolcover.CubeFromMinterm(s.Code))
		}
	}
	return c
}

// ReachableCodes returns the cover of all reachable binary codes; its
// complement is the DC-set.
func (sg *Graph) ReachableCodes() *boolcover.Cover {
	c := boolcover.NewCover(sg.STG.NumSignals())
	for _, s := range sg.States {
		c.Add(boolcover.CubeFromMinterm(s.Code))
	}
	return c
}

// Deadlocks returns the indices of states with no enabled transition.
func (sg *Graph) Deadlocks() []int {
	var out []int
	for i := range sg.States {
		if len(sg.Succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}
