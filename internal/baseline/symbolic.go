package baseline

import (
	"context"
	"fmt"
	"time"

	"punt/internal/bdd"
	"punt/internal/boolcover"
	"punt/internal/faultinject"
	"punt/internal/gatelib"
	"punt/internal/petri"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// SymbolicSynthesizer is the "Petrify-like" baseline: the reachable state
// space of the STG is represented by a BDD over one variable per place plus
// one variable per signal; the on/off-sets of every output signal are
// computed symbolically and converted into covers for minimisation.
type SymbolicSynthesizer struct {
	// MaxNodes aborts synthesis with ErrLimit when the BDD manager exceeds
	// this many nodes (0 = unlimited).
	MaxNodes int
	// Arch selects the implementation architecture (default ComplexGate).
	Arch gatelib.Architecture
	// Progress, when non-nil, receives coarse progress notifications.
	Progress ProgressFunc
}

// Synthesize derives an implementation for every output and internal signal.
// Cancellation of ctx is checked on every image-computation iteration and
// before every signal's cover extraction.
func (s *SymbolicSynthesizer) Synthesize(ctx context.Context, g *stg.STG) (*gatelib.Implementation, *Stats, error) {
	stats := &Stats{}
	total := time.Now()
	if !g.HasInitialState() {
		if err := unfolding.DeriveInitialState(ctx, g); err != nil {
			return nil, stats, err
		}
	}
	net := g.Net()
	nPlaces := net.NumPlaces()
	nSignals := g.NumSignals()
	m := bdd.New(nPlaces + nSignals)
	placeVar := func(p petri.PlaceID) int { return int(p) }
	signalVar := func(sig int) int { return nPlaces + sig }

	// Initial state: conjunction of all place variables (1 if marked) and all
	// signal variables (per the initial binary code).
	buildStart := time.Now()
	init := m.Const(true)
	initialMarking := net.Initial()
	for p := 0; p < nPlaces; p++ {
		if initialMarking.Tokens(petri.PlaceID(p)) > 1 {
			return nil, stats, fmt.Errorf("baseline: symbolic synthesis requires a safe net (place %q holds %d tokens)",
				net.PlaceName(petri.PlaceID(p)), initialMarking.Tokens(petri.PlaceID(p)))
		}
		if initialMarking.Marked(petri.PlaceID(p)) {
			init = m.And(init, m.Var(placeVar(petri.PlaceID(p))))
		} else {
			init = m.And(init, m.NVar(placeVar(petri.PlaceID(p))))
		}
	}
	code := g.InitialState()
	for sig := 0; sig < nSignals; sig++ {
		if code.Get(sig) {
			init = m.And(init, m.Var(signalVar(sig)))
		} else {
			init = m.And(init, m.NVar(signalVar(sig)))
		}
	}

	// Pre-compute per-transition data: enabling condition, variables changed
	// by the firing and the constraint describing the new values.
	type transRel struct {
		enabled bdd.Node
		changed []int
		newVals bdd.Node
		label   stg.Label
		name    string
	}
	rels := make([]transRel, net.NumTransitions())
	for t := 0; t < net.NumTransitions(); t++ {
		tid := petri.TransitionID(t)
		enabled := m.Const(true)
		for _, p := range net.Pre(tid) {
			enabled = m.And(enabled, m.Var(placeVar(p)))
		}
		inPre := map[petri.PlaceID]bool{}
		for _, p := range net.Pre(tid) {
			inPre[p] = true
		}
		inPost := map[petri.PlaceID]bool{}
		for _, p := range net.Post(tid) {
			inPost[p] = true
		}
		var changed []int
		newVals := m.Const(true)
		for _, p := range net.Pre(tid) {
			if !inPost[p] {
				changed = append(changed, placeVar(p))
				newVals = m.And(newVals, m.NVar(placeVar(p)))
			}
		}
		for _, p := range net.Post(tid) {
			if !inPre[p] {
				changed = append(changed, placeVar(p))
				newVals = m.And(newVals, m.Var(placeVar(p)))
			}
		}
		label := g.Label(tid)
		if !label.IsDummy {
			changed = append(changed, signalVar(label.Signal))
			if label.Dir == stg.Plus {
				// Consistency: the signal must be 0 before a rising edge.
				enabled = m.And(enabled, m.NVar(signalVar(label.Signal)))
				newVals = m.And(newVals, m.Var(signalVar(label.Signal)))
			} else {
				enabled = m.And(enabled, m.Var(signalVar(label.Signal)))
				newVals = m.And(newVals, m.NVar(signalVar(label.Signal)))
			}
		}
		rels[t] = transRel{enabled: enabled, changed: changed, newVals: newVals, label: label, name: g.TransitionString(tid)}
	}

	// Least fixed point of the image computation.
	reached := init
	frontier := init
	for frontier != bdd.False {
		if err := ctx.Err(); err != nil {
			stats.BuildTime = time.Since(buildStart)
			return nil, stats, err
		}
		if err := faultinject.Check(ctx, faultinject.OpSymbolicFixpoint); err != nil {
			stats.BuildTime = time.Since(buildStart)
			return nil, stats, err
		}
		next := bdd.False
		for _, rel := range rels {
			from := m.And(frontier, rel.enabled)
			if from == bdd.False {
				continue
			}
			img := m.And(m.Exists(from, rel.changed), rel.newVals)
			next = m.Or(next, img)
		}
		newStates := m.And(next, m.Not(reached))
		reached = m.Or(reached, newStates)
		frontier = newStates
		if s.MaxNodes > 0 && m.NumNodes() > s.MaxNodes {
			stats.BuildTime = time.Since(buildStart)
			return nil, stats, fmt.Errorf("%w: BDD grew beyond %d nodes", ErrLimit, s.MaxNodes)
		}
	}
	stats.BuildTime = time.Since(buildStart)
	// Every satisfying assignment of `reached` fixes all place and signal
	// variables, so the satisfy count equals the number of reachable states.
	stats.States = int(m.SatCount(reached))
	if s.Progress != nil {
		s.Progress("build", "", stats.States)
	}

	// Consistency of the specification is enforced by construction above: a
	// rising edge is only enabled when the signal is 0.  A specification that
	// violates consistency simply yields unreachable successors; the explicit
	// flow reports it precisely, so we do not duplicate the diagnostics here.

	placeVars := make([]int, nPlaces)
	for p := 0; p < nPlaces; p++ {
		placeVars[p] = p
	}

	im := &gatelib.Implementation{Name: g.Name(), SignalNames: g.SignalNames()}
	for _, sig := range g.OutputSignals() {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if s.Progress != nil {
			s.Progress("covers", g.Signal(sig).Name, stats.States)
		}
		coverStart := time.Now()
		excitedPlus := bdd.False
		excitedMinus := bdd.False
		for t := 0; t < net.NumTransitions(); t++ {
			l := rels[t].label
			if l.IsDummy || l.Signal != sig {
				continue
			}
			if l.Dir == stg.Plus {
				excitedPlus = m.Or(excitedPlus, rels[t].enabled)
			} else {
				excitedMinus = m.Or(excitedMinus, rels[t].enabled)
			}
		}
		sigVar := m.Var(signalVar(sig))
		onStates := m.And(reached, m.Or(excitedPlus, m.And(sigVar, m.Not(excitedMinus))))
		offStates := m.And(reached, m.Or(excitedMinus, m.And(m.Not(sigVar), m.Not(excitedPlus))))
		onCodes := m.Exists(onStates, placeVars)
		offCodes := m.Exists(offStates, placeVars)
		if m.And(onCodes, offCodes) != bdd.False {
			stats.CoverTime += time.Since(coverStart)
			stats.Total = time.Since(total)
			return nil, stats, &CSCError{Signal: g.Signal(sig).Name}
		}
		on := coverFromBDD(m, onCodes, nPlaces, nSignals)
		off := coverFromBDD(m, offCodes, nPlaces, nSignals)
		var erPlus, erMinus *boolcover.Cover
		if s.Arch != gatelib.ComplexGate {
			erPlus = coverFromBDD(m, m.Exists(m.And(reached, excitedPlus), placeVars), nPlaces, nSignals)
			erMinus = coverFromBDD(m, m.Exists(m.And(reached, excitedMinus), placeVars), nPlaces, nSignals)
		}
		stats.CoverTime += time.Since(coverStart)

		gate, minTime := buildGate(g, sig, s.Arch, on, off, erPlus, erMinus)
		stats.MinimizeTime += minTime
		im.Gates = append(im.Gates, gate)
	}
	stats.Total = time.Since(total)
	return im, stats, nil
}

// coverFromBDD converts a BDD whose support lies within the signal variables
// into a cover over the signals.
func coverFromBDD(m *bdd.Manager, f bdd.Node, nPlaces, nSignals int) *boolcover.Cover {
	cover := boolcover.NewCover(nSignals)
	m.AllCubes(f, func(cube []bdd.CubeValue) bool {
		c := boolcover.NewCube(nSignals)
		for sig := 0; sig < nSignals; sig++ {
			switch cube[nPlaces+sig] {
			case bdd.CubeOne:
				c.Set(sig, boolcover.One)
			case bdd.CubeZero:
				c.Set(sig, boolcover.Zero)
			}
		}
		cover.Add(c)
		return true
	})
	return cover
}
