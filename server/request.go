package server

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"punt"
	"punt/gates"
)

// Request is the synthesis configuration vocabulary shared by the punt CLI
// and the daemon: the JSON body of POST /v1/synthesize, and the value the
// punt command fills from its flags (RegisterFlags) and either synthesizes
// locally through Options or posts to a daemon unchanged.  Every field
// mirrors a functional option of the punt facade; the zero value of each
// field selects the same default the library would.
type Request struct {
	// Spec is the STG specification as .g text — the same format LoadFile
	// reads and Spec.Text renders.
	Spec string `json:"spec"`
	// Engine selects the synthesis engine by registry name: "unfolding"
	// (default), "explicit", "symbolic", "decompose", any other name in
	// punt.Backends(), or "portfolio", which races unfolding, explicit and
	// symbolic.
	Engine string `json:"engine,omitempty"`
	// Arch selects the implementation architecture: "complex-gate"
	// (default), "standard-c" or "rs-latch".
	Arch string `json:"arch,omitempty"`
	// Exact derives exact covers by slice enumeration instead of the
	// default approximation.
	Exact bool `json:"exact,omitempty"`
	// MaxEvents, MaxStates and MaxNodes bound the engines, as the options
	// of the same names do (0 = the engine defaults).  MaxStates bounds
	// explicit state enumeration, the CSC resolver and the closed-loop
	// verification alike.
	MaxEvents int `json:"max_events,omitempty"`
	MaxStates int `json:"max_states,omitempty"`
	MaxNodes  int `json:"max_nodes,omitempty"`
	// ResolveCSC repairs Complete State Coding conflicts by internal-signal
	// insertion; MaxCSCSignals bounds the insertions (0 = the default).
	ResolveCSC    bool `json:"resolve_csc,omitempty"`
	MaxCSCSignals int  `json:"max_csc_signals,omitempty"`
	// DeadlineMS and MemBudget install the per-attempt resource watchdog
	// (WithDeadline / WithMemoryBudget); exhaustion is reported with
	// exit_code 4 like the CLI's status 4.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	MemBudget  int64 `json:"mem_budget,omitempty"`
	// Fallback enables the built-in degradation ladder: approximate covers,
	// then the unfolding engine with a reduced segment bound.
	Fallback bool `json:"fallback,omitempty"`
	// Verify additionally checks the implementation with the closed-loop
	// verifier; a failure is reported with exit_code 3.
	Verify bool `json:"verify,omitempty"`
	// Stream switches the response to newline-delimited JSON: one
	// {"progress": …} line per WithProgress event as synthesis runs,
	// terminated by a single {"result": …} or {"error": …} line.
	Stream bool `json:"stream,omitempty"`
}

// RegisterFlags defines one command-line flag per configuration field (all
// but Spec and Stream) on fs, writing into r.  The flag names are the JSON
// names with dashes; -deadline takes a duration and is rounded up to whole
// milliseconds.
func (r *Request) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.Engine, "engine", punt.Unfolding, "synthesis engine: "+strings.Join(engineNames(), ", "))
	fs.StringVar(&r.Arch, "arch", "complex-gate", "implementation architecture: complex-gate, standard-c or rs-latch")
	fs.BoolVar(&r.Exact, "exact", false, "derive exact covers by slice enumeration instead of approximation")
	fs.IntVar(&r.MaxEvents, "max-events", 0, "abort if the unfolding segment exceeds this many events (0 = default)")
	fs.IntVar(&r.MaxStates, "max-states", 0, "bound explicit state enumeration, CSC resolution and verification to this many states (0 = default)")
	fs.IntVar(&r.MaxNodes, "max-nodes", 0, "abort symbolic reachability beyond this many BDD nodes (0 = unlimited)")
	fs.BoolVar(&r.ResolveCSC, "resolve-csc", false, "repair CSC conflicts by inserting internal state signals")
	fs.IntVar(&r.MaxCSCSignals, "max-csc-signals", 0, "bound on inserted CSC signals with -resolve-csc (0 = default)")
	fs.Var((*millis)(&r.DeadlineMS), "deadline", "per-attempt wall-clock budget as a `duration` such as 500ms (0 = none); exhaustion exits with status 4")
	fs.Int64Var(&r.MemBudget, "mem-budget", 0, "per-attempt heap-growth budget in bytes (0 = none); exhaustion exits with status 4")
	fs.BoolVar(&r.Fallback, "fallback", false, "degrade through cheaper configurations when a resource budget is exhausted")
	fs.BoolVar(&r.Verify, "verify", false, "verify the implementation with the closed-loop simulation; exit 3 on failure")
}

// millis is a flag.Value reading a duration into whole milliseconds, rounded
// up so that a positive deadline never becomes "none".
type millis int64

func (m *millis) String() string { return (time.Duration(*m) * time.Millisecond).String() }

func (m *millis) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*m = millis((d + time.Millisecond - 1) / time.Millisecond)
	return nil
}

// usageError marks a request whose configuration vocabulary is wrong (an
// unknown engine or architecture name, an unknown field) — the HTTP analogue
// of the CLI's usage exit status 2, distinct from a specification that
// parses but cannot be synthesised.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// Options translates the request into the facade's functional options,
// including the built-in fallback ladder.  Every error it returns is a usage
// error; an unknown engine name matches punt.ErrUnknownEngine.
func (r *Request) Options() ([]punt.Option, error) {
	engine := orDefault(r.Engine, punt.Unfolding)
	if !slices.Contains(engineNames(), engine) {
		return nil, &usageError{fmt.Errorf("%w %q (want %s)", punt.ErrUnknownEngine, engine, strings.Join(engineNames(), ", "))}
	}
	arch, err := gates.ParseArchitecture(orDefault(r.Arch, "complex-gate"))
	if err != nil {
		return nil, &usageError{err}
	}
	opts := []punt.Option{
		punt.WithEngine(engine),
		punt.WithArch(arch),
		punt.WithMaxEvents(r.MaxEvents),
		punt.WithMaxStates(r.MaxStates),
		punt.WithMaxNodes(r.MaxNodes),
	}
	if r.Exact {
		opts = append(opts, punt.WithMode(punt.Exact))
	}
	if r.ResolveCSC {
		opts = append(opts, punt.WithResolveCSC(r.MaxCSCSignals))
	}
	if r.DeadlineMS > 0 {
		opts = append(opts, punt.WithDeadline(time.Duration(r.DeadlineMS)*time.Millisecond))
	}
	if r.MemBudget > 0 {
		opts = append(opts, punt.WithMemoryBudget(r.MemBudget))
	}
	if r.Fallback {
		// First retry with the cheap approximate covers, then fall back to
		// the unfolding engine with a tight segment bound — the paper's own
		// degradation strategy (a truncated segment in place of the full
		// state space).
		opts = append(opts, punt.WithFallback(
			punt.Fallback("approximate", punt.WithMode(punt.Approximate)),
			punt.Fallback("unfolding-small", punt.WithEngine(punt.Unfolding), punt.WithMaxEvents(10000)),
		))
	}
	return opts, nil
}

// Synthesize runs the synthesis the request describes — synth is built from
// r.Options, plus whatever cache or progress callback the caller adds — and,
// with r.Verify, checks the implementation with the closed-loop verifier
// under r.MaxStates.  It is the step the daemon and the punt CLI both take.
// A resolver-repaired result is not verified again: Synthesize proved it
// against the repaired specification already.  A cached result is: the
// cache may hold entries from requests that did not ask for verification.
// A verification failure, a state bound included, maps to ExitCode 3.
func (r *Request) Synthesize(ctx context.Context, synth *punt.Synthesizer, spec *punt.Spec) (*punt.Result, *punt.VerifyReport, error) {
	res, err := synth.Synthesize(ctx, spec)
	if err != nil || !r.Verify || res.Resolved() {
		return res, nil, err
	}
	rep, err := punt.Verify(ctx, res.Spec, res, punt.WithMaxStates(r.MaxStates))
	if err != nil {
		return nil, nil, &verifyError{err}
	}
	return res, rep, nil
}

// engineNames lists the selectable engines: every registered backend, then
// the portfolio scheduler.
func engineNames() []string {
	return append(punt.Backends(), punt.Portfolio)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
