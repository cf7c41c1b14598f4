package punt

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"punt/gates"
	"punt/internal/baseline"
	"punt/internal/core"
)

// The engine names: the builtin registered backends plus the portfolio
// scheduler.  They are untyped string constants, so WithEngine(Explicit) and
// WithEngine("explicit") are the same selection; any name registered with
// Register is selectable the same way.
const (
	// Unfolding is the paper's PUNT flow: covers are derived from the
	// STG-unfolding segment without building the state graph (the default).
	Unfolding = "unfolding"
	// Explicit is the "SIS-like" baseline: explicit state-graph enumeration.
	Explicit = "explicit"
	// Symbolic is the "Petrify-like" baseline: BDD-based reachability.
	Symbolic = "symbolic"
	// Decompose is the compositional backend: it factors the specification
	// into independent (or articulated) components, synthesizes each
	// concurrently through an inner engine, and recombines the covers; an
	// indivisible specification falls through to the inner engine unchanged.
	// See WithDecomposeInner.
	Decompose = "decompose"
	// Portfolio is not a backend but the scheduler that races several
	// backends concurrently and returns the first success; see
	// WithContenders.  The name is reserved in the registry.
	Portfolio = "portfolio"
)

// BackendConfig is the engine-agnostic part of a Synthesizer's configuration,
// handed to the selected Backend on every run.  Backends read the budgets
// that apply to them and ignore the rest; Progress, when non-nil, is already
// wrapped by the dispatcher so that every notification carries the backend's
// name in Progress.Engine.
type BackendConfig struct {
	// Mode selects exact or approximate cover derivation (unfolding flow).
	Mode Mode
	// Arch is the target gate architecture.
	Arch gates.Architecture
	// MaxEvents bounds the unfolding segment (0 = the engine default).
	MaxEvents int
	// MaxStates bounds explicit state-space enumeration (0 = unlimited).
	MaxStates int
	// MaxNodes bounds the symbolic engine's BDD size (0 = unlimited).
	MaxNodes int
	// Workers bounds intra-run parallelism for engines that support it (the
	// unfolding flow shards its possible-extension computation, the decompose
	// backend synthesizes this many components at once); <= 1 selects the
	// sequential path.  Parallel runs are deterministic: the output is
	// byte-identical to the sequential build.
	Workers int
	// Inner names the engine the decompose backend synthesizes components
	// with (and falls through to on indivisible specifications); empty
	// selects "unfolding".  Other backends ignore it.
	Inner string
	// Progress receives coarse notifications; may be nil.  It runs on the
	// synthesizing goroutine and must be cheap.
	Progress func(Progress)
}

// Backend is a pluggable synthesis engine.  Implementations must be safe for
// concurrent use: the same Backend value is shared by every Synthesizer that
// selects it, and the portfolio scheduler runs backends from several
// goroutines at once.  Synthesize must honour ctx cancellation promptly —
// the portfolio scheduler cancels losing contenders through it.
//
// A Backend returns a Result whose Impl is filled; the dispatcher completes
// Spec and Stats.Backend when the backend leaves them empty, and wraps any
// error into a *Diagnostic.
type Backend interface {
	// Name identifies the backend in the registry, in Stats.Backend and in
	// Progress.Engine.  It must be non-empty and unique.
	Name() string
	// Synthesize derives an implementation of spec under cfg.
	Synthesize(ctx context.Context, spec *Spec, cfg BackendConfig) (*Result, error)
}

// The package-level backend registry.  The three builtin engines are
// registered at init; Register adds more.
var (
	backendsMu sync.RWMutex
	backends   = make(map[string]Backend)
)

// Register makes a synthesis backend selectable by name through WithEngine
// (and through the portfolio scheduler's WithContenders).  It panics when the
// name is empty, reserved ("portfolio") or already taken, mirroring the
// database/sql driver registry contract.
func Register(b Backend) {
	if b == nil {
		panic("punt: Register with a nil backend")
	}
	name := b.Name()
	if name == "" {
		panic("punt: Register with an empty backend name")
	}
	if name == Portfolio {
		panic(`punt: backend name "portfolio" is reserved for the scheduler`)
	}
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("punt: Register called twice for backend %q", name))
	}
	backends[name] = b
}

// Backends returns the names of all registered backends, sorted.
func Backends() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupBackend resolves a registered backend by name; an unknown name
// fails with ErrUnknownEngine, listing the registered ones.
func lookupBackend(name string) (Backend, error) {
	backendsMu.RLock()
	b, ok := backends[name]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q: no backend registered under that name (have %v)", ErrUnknownEngine, name, Backends())
	}
	return b, nil
}

func init() {
	Register(unfoldingBackend{})
	Register(explicitBackend{})
	Register(symbolicBackend{})
	Register(decomposeBackend{})
}

// instrumentProgress stamps the backend name onto every notification, so
// interleaved portfolio progress stays attributable.
func instrumentProgress(p func(Progress), engine string) func(Progress) {
	if p == nil {
		return nil
	}
	return func(pr Progress) {
		pr.Engine = engine
		p(pr)
	}
}

// runBackend drives one backend and normalises its outcome: errors become
// *Diagnostic values and the Result always carries the Spec and the backend
// name.  This is the central recovery point for backend panics — every entry
// path (plain Synthesize, Batch workers, portfolio contenders) funnels
// through here, so a panicking backend yields a KindPanic diagnostic instead
// of crashing the process — and the anti-poisoning guard: a result delivered
// under an already-expired context is discarded, because the engines abandon
// work mid-loop on cancellation and a backend may race its own cancellation
// check.
func runBackend(ctx context.Context, b Backend, spec *Spec, cfg BackendConfig) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, diagnose("synthesize", spec.Name(),
				&PanicError{Backend: b.Name(), Value: p, Stack: debug.Stack()})
		}
	}()
	cfg.Progress = instrumentProgress(cfg.Progress, b.Name())
	res, err = b.Synthesize(ctx, spec, cfg)
	if err == nil && ctx.Err() != nil {
		// Never trust a result produced under an expired context: the cause
		// (the caller's cancellation or a budget trip) becomes the error.
		cause := context.Cause(ctx)
		if cause == nil {
			cause = ctx.Err()
		}
		return nil, diagnose("synthesize", spec.Name(), cause)
	}
	if err != nil {
		return nil, diagnose("synthesize", spec.Name(), err)
	}
	if res == nil || res.Impl == nil {
		return nil, diagnose("synthesize", spec.Name(),
			fmt.Errorf("backend %q returned no implementation", b.Name()))
	}
	if res.Spec == nil {
		res.Spec = spec
	}
	// The dispatcher stamps the selected backend's identity even on results a
	// delegating backend obtained elsewhere: Stats.Backend answers "which
	// registered backend did I select", not "which engine ran underneath".
	// A backend that leaves Stats.Engine empty ran itself.
	res.Stats.Backend = b.Name()
	if res.Stats.Engine == "" {
		res.Stats.Engine = b.Name()
	}
	return res, nil
}

// unfoldingBackend is the paper's PUNT flow behind the Backend interface.
type unfoldingBackend struct{}

func (unfoldingBackend) Name() string { return Unfolding }

func (unfoldingBackend) Synthesize(ctx context.Context, spec *Spec, cfg BackendConfig) (*Result, error) {
	copts := core.Options{Mode: cfg.Mode, Arch: cfg.Arch, MaxEvents: cfg.MaxEvents, Workers: cfg.Workers}
	if p := cfg.Progress; p != nil {
		copts.Progress = func(stage, signal string, events int) {
			p(Progress{Stage: stage, Signal: signal, Events: events})
		}
	}
	im, st, err := core.New(copts).Synthesize(ctx, spec.g)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Impl: im}
	res.Stats = Stats{
		Engine:         Unfolding,
		Workers:        cfg.Workers,
		PEParallel:     cfg.Workers > 1,
		UnfTime:        st.UnfTime,
		SynTime:        st.SynTime,
		EspTime:        st.EspTime,
		Total:          st.Total,
		Events:         st.Events,
		Conditions:     st.Conditions,
		Cutoffs:        st.Cutoffs,
		TermsRefined:   st.TermsRefined,
		SignalsRefined: st.SignalsRefined,
	}
	return res, nil
}

// explicitBackend is the "SIS-like" explicit state-graph baseline behind the
// Backend interface.
type explicitBackend struct{}

func (explicitBackend) Name() string { return Explicit }

func (explicitBackend) Synthesize(ctx context.Context, spec *Spec, cfg BackendConfig) (*Result, error) {
	eng := &baseline.ExplicitSynthesizer{
		Arch:      cfg.Arch,
		MaxStates: cfg.MaxStates,
		Progress:  baselineProgress(cfg.Progress),
	}
	im, st, err := eng.Synthesize(ctx, spec.g)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Impl: im}
	res.Stats.Engine = Explicit
	fillBaselineStats(&res.Stats, st)
	return res, nil
}

// symbolicBackend is the "Petrify-like" BDD baseline behind the Backend
// interface.
type symbolicBackend struct{}

func (symbolicBackend) Name() string { return Symbolic }

func (symbolicBackend) Synthesize(ctx context.Context, spec *Spec, cfg BackendConfig) (*Result, error) {
	eng := &baseline.SymbolicSynthesizer{
		Arch:     cfg.Arch,
		MaxNodes: cfg.MaxNodes,
		Progress: baselineProgress(cfg.Progress),
	}
	im, st, err := eng.Synthesize(ctx, spec.g)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Impl: im}
	res.Stats.Engine = Symbolic
	fillBaselineStats(&res.Stats, st)
	return res, nil
}

// baselineProgress adapts the public progress callback to the baseline
// engines' hook.
func baselineProgress(p func(Progress)) baseline.ProgressFunc {
	if p == nil {
		return nil
	}
	return func(stage, signal string, states int) {
		p(Progress{Stage: stage, Signal: signal, States: states})
	}
}

func fillBaselineStats(dst *Stats, st *baseline.Stats) {
	dst.UnfTime = st.BuildTime
	dst.SynTime = st.CoverTime
	dst.EspTime = st.MinimizeTime
	dst.Total = st.Total
	dst.States = st.States
}
