package punt

import (
	"context"

	"punt/internal/stategraph"
	"punt/internal/unfolding"
)

// SegmentStats summarises the size of an unfolding segment (events,
// conditions, cut-offs).
type SegmentStats = unfolding.Stats

// Segment is the finite STG-unfolding segment of a specification: the
// truncated occurrence-net prefix the synthesis flow derives covers from.
type Segment struct {
	spec *Spec
	u    *unfolding.Unfolding
}

// Unfold builds the STG-unfolding segment of spec.  WithMaxEvents bounds the
// construction; ctx cancellation aborts it promptly.
func Unfold(ctx context.Context, spec *Spec, opts ...Option) (*Segment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	uopts := unfolding.Options{MaxEvents: cfg.maxEvents}
	if p := cfg.progress; p != nil {
		uopts.Progress = func(events int) { p(Progress{Stage: "unfold", Events: events}) }
	}
	u, err := unfolding.Build(ctx, spec.g, uopts)
	if err != nil {
		return nil, diagnose("unfold", spec.Name(), err)
	}
	return &Segment{spec: spec, u: u}, nil
}

// Spec returns the specification the segment was built from.
func (s *Segment) Spec() *Spec { return s.spec }

// Stats returns size statistics of the segment.
func (s *Segment) Stats() SegmentStats { return s.u.Statistics() }

// Dump renders every event of the segment with its binary code, preset,
// postset and cut-off status, mirroring the figures of the paper.
func (s *Segment) Dump() string { return s.u.Dump() }

// SemiModularityViolations returns the potential semi-modularity (output
// persistency) violations detected structurally on the segment, rendered for
// diagnostics.  An implementable specification returns none.
func (s *Segment) SemiModularityViolations() []string {
	vs := s.u.CheckSemiModularity()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// StateGraph is the explicit state graph of a specification, exposed for the
// correctness analyses the paper's Section 2 requires (and for comparison
// against the unfolding segment).
type StateGraph struct {
	spec *Spec
	sg   *stategraph.Graph
}

// BuildStateGraph explores the reachable state space of spec.  WithMaxStates
// bounds the exploration (failing with ErrLimit beyond it); ctx cancellation
// aborts it promptly.
func BuildStateGraph(ctx context.Context, spec *Spec, opts ...Option) (*StateGraph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	sgopts := stategraph.Options{MaxStates: cfg.maxStates}
	if p := cfg.progress; p != nil {
		sgopts.Progress = func(states int) { p(Progress{Stage: "build", States: states}) }
	}
	sg, err := stategraph.Build(ctx, spec.g, sgopts)
	if err != nil {
		return nil, diagnose("stategraph", spec.Name(), err)
	}
	return &StateGraph{spec: spec, sg: sg}, nil
}

// Spec returns the specification the state graph was built from.
func (g *StateGraph) Spec() *Spec { return g.spec }

// NumStates returns the number of reachable states.
func (g *StateGraph) NumStates() int { return g.sg.NumStates() }

// Report summarises all correctness checks (deadlocks, output persistency,
// USC, CSC) in a human-readable form.
func (g *StateGraph) Report() string { return g.sg.Report() }

// CSCConflict is one structured Complete State Coding conflict: two reachable
// states sharing a binary code but disagreeing on the excited outputs.  It
// carries the conflicting state pair, the output signals whose excitation
// differs, and shortest witness traces from the initial state to each state;
// String renders the conventional one-line description.
type CSCConflict = stategraph.CSCConflict

// CSCConflicts returns every Complete State Coding conflict of the state
// graph as structured values (render one with its String method).  An
// implementable specification returns none; the CSC resolver behind
// WithResolveCSC consumes exactly this analysis.
func (g *StateGraph) CSCConflicts() []CSCConflict {
	return g.sg.CheckCSC()
}
