// Package verify implements closed-loop verification of synthesised
// speed-independent circuits against their STG specifications.
//
// The verifier composes the gate-level implementation with the environment
// the specification describes and explores every interleaving the composition
// admits under arbitrary gate delays: each gate (and, for the memory-element
// architectures, each set/reset network output) is an independent node that
// switches an unbounded, unknown time after it becomes excited, while the
// environment fires input transitions whenever the specification's token game
// enables them.  Three properties are checked on the composed state space:
//
//   - Conformance: whenever a gate is ready to switch its output, the
//     specification must enable the corresponding signal transition — a gate
//     that can drive an edge the STG does not allow produces an output trace
//     outside the specified behaviour.
//   - Hazard-freedom: an excited gate must stay excited (toward the same
//     value) until it fires, no matter which other gate or input switches
//     first.  A disabled excitation is the canonical speed-independence
//     hazard: under an adversarial delay assignment the gate output glitches.
//   - Liveness: every output transition the specification enables must be
//     producible by the circuit from the state that enables it — with the
//     wires frozen, the gate networks must settle into an excitation of the
//     expected direction, otherwise the expected edge is lost and the
//     environment can wait for it forever.
//
// A violation is reported as a *Violation carrying a concrete timed
// counterexample trace (unit delays, one firing per time step) from the
// initial state to the offending event.
//
// The composition is explored per cluster: connected components of the
// underlying net, merged whenever a gate's input support couples two
// components.  Independent components multiply state counts in the product
// but never interact, so verifying them separately is sound and turns
// specifications like the counterflow pipeline (two disjoint pipelines whose
// product state graph is astronomically large) into two tractable runs.
package verify

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"punt/internal/gatelib"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// DefaultMaxStates is the per-cluster composed-state budget used when
// Options.MaxStates is zero.
const DefaultMaxStates = 1 << 20

// ErrStateLimit is returned when the composed exploration exceeds the
// configured state budget before finishing all checks.
var ErrStateLimit = errors.New("verify: composed state limit exceeded")

// Options configures verification.
type Options struct {
	// MaxStates bounds the number of composed states explored per cluster
	// (0 = DefaultMaxStates).  Exceeding it fails with ErrStateLimit.
	MaxStates int
}

// Report summarises a successful verification run.
type Report struct {
	// Clusters is the number of independent sub-circuits verified (connected
	// components of the net, merged by gate support).
	Clusters int
	// ComposedStates and ComposedEdges count the explored closed-loop states
	// and firings, summed over all clusters.
	ComposedStates int
	ComposedEdges  int
	// Outputs is the number of gates checked.
	Outputs int
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("verified %d gates over %d composed states (%d firings, %d clusters)",
		r.Outputs, r.ComposedStates, r.ComposedEdges, r.Clusters)
}

// ViolationKind classifies a verification failure.
type ViolationKind int

// The three failure classes of the closed-loop checks.
const (
	// Conformance: a gate can drive an output edge the specification does
	// not enable.
	Conformance ViolationKind = iota
	// Hazard: an excited gate is disabled before it fires; under an
	// adversarial delay assignment the output glitches.
	Hazard
	// Liveness: a specification-enabled output transition can never be
	// produced by the circuit.
	Liveness
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case Conformance:
		return "conformance violation"
	case Hazard:
		return "hazard"
	case Liveness:
		return "lost liveness"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Step is one firing of the counterexample trace, stamped with a unit-delay
// time (one firing per time step, starting at 1).
type Step struct {
	Time  int
	Actor string // "env", "gate" or "net"
	Event string // e.g. "input r+", "gate b drives b+", "set(b) settles to 0"
}

// String renders the step.
func (s Step) String() string { return fmt.Sprintf("t=%d\t[%s]\t%s", s.Time, s.Actor, s.Event) }

// Violation is a verification failure: the check that failed, the offending
// signal and a timed counterexample trace from the initial state to the
// failure.  It implements error.
type Violation struct {
	Kind   ViolationKind
	Signal string // the offending output signal
	Detail string // human-readable description of the failing check
	Trace  []Step // timed counterexample (may be empty when the initial state fails)
}

// Error renders the violation with its counterexample.
func (v *Violation) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify: %s on signal %q: %s", v.Kind, v.Signal, v.Detail)
	if len(v.Trace) > 0 {
		sb.WriteString("; counterexample:")
		for _, st := range v.Trace {
			sb.WriteString("\n  ")
			sb.WriteString(st.String())
		}
	}
	return sb.String()
}

// TraceStrings renders the counterexample steps line by line.
func (v *Violation) TraceStrings() []string {
	out := make([]string, len(v.Trace))
	for i, s := range v.Trace {
		out[i] = s.String()
	}
	return out
}

// Verify checks the implementation against the specification with the
// closed-loop gate-level simulation described in the package comment.  It
// returns a *Violation (as error) on a failed check, ErrStateLimit when the
// exploration budget is exhausted, or another error when the inputs are
// malformed (missing gates, mismatched signal ordering, unsafe or
// inconsistent specification).
func Verify(ctx context.Context, g *stg.STG, im *gatelib.Implementation, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !g.HasInitialState() {
		if err := unfolding.DeriveInitialState(ctx, g); err != nil {
			return nil, err
		}
	}
	gates, err := gateTable(g, im)
	if err != nil {
		return nil, err
	}
	clusters := partition(g, gates)
	rep := &Report{Clusters: len(clusters), Outputs: len(gates)}
	for _, cl := range clusters {
		s := newSim(g, cl, opts)
		if err := s.run(ctx); err != nil {
			return nil, err
		}
		rep.ComposedStates += len(s.states)
		rep.ComposedEdges += s.edges
	}
	return rep, nil
}

// gateTable resolves one gate per implemented (non-input) signal and checks
// that the implementation matches the specification's signal alphabet.
func gateTable(g *stg.STG, im *gatelib.Implementation) (map[int]gatelib.Gate, error) {
	if im == nil {
		return nil, errors.New("verify: nil implementation")
	}
	names := g.SignalNames()
	if len(im.SignalNames) != len(names) {
		return nil, fmt.Errorf("verify: implementation is over %d signals, specification has %d",
			len(im.SignalNames), len(names))
	}
	for i, n := range im.SignalNames {
		if n != names[i] {
			return nil, fmt.Errorf("verify: implementation signal order differs from the specification at position %d (%q vs %q)",
				i, n, names[i])
		}
	}
	table := make(map[int]gatelib.Gate, len(im.Gates))
	for _, gate := range im.Gates {
		sig, ok := g.SignalIndex(gate.Signal)
		if !ok {
			return nil, fmt.Errorf("verify: implementation has a gate for unknown signal %q", gate.Signal)
		}
		if k := g.Signal(sig).Kind; k == stg.Input {
			return nil, fmt.Errorf("verify: implementation drives input signal %q", gate.Signal)
		}
		if _, dup := table[sig]; dup {
			return nil, fmt.Errorf("verify: implementation has two gates for signal %q", gate.Signal)
		}
		if err := checkGateWidth(gate, len(names)); err != nil {
			return nil, err
		}
		table[sig] = gate
	}
	for _, sig := range g.OutputSignals() {
		if _, ok := table[sig]; !ok {
			return nil, fmt.Errorf("verify: implementation has no gate for output signal %q", g.Signal(sig).Name)
		}
	}
	return table, nil
}

func checkGateWidth(gate gatelib.Gate, n int) error {
	if gate.Arch == gatelib.ComplexGate {
		if gate.Cover == nil {
			return fmt.Errorf("verify: gate %q has no cover", gate.Signal)
		}
		if gate.Cover.Vars() != n {
			return fmt.Errorf("verify: cover of gate %q is over %d variables, want %d", gate.Signal, gate.Cover.Vars(), n)
		}
		return nil
	}
	if gate.Set == nil || gate.Reset == nil {
		return fmt.Errorf("verify: gate %q is missing its set/reset covers", gate.Signal)
	}
	if gate.Set.Vars() != n || gate.Reset.Vars() != n {
		return fmt.Errorf("verify: set/reset covers of gate %q do not match the %d-signal alphabet", gate.Signal, n)
	}
	return nil
}
