package punt

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"punt/internal/baseline"
	"punt/internal/core"
	"punt/internal/resolve"
	"punt/internal/stategraph"
	"punt/internal/unfolding"
	"punt/internal/verify"
)

// Sentinel errors of the public API.  The first three are re-exported from
// the engine packages, so errors.Is works on errors that cross the facade in
// either direction; the remaining two unify failure classes that the engines
// report with distinct types.
var (
	// ErrNotSafe: the underlying Petri net is not 1-safe.
	ErrNotSafe = unfolding.ErrNotSafe
	// ErrEventLimit: the unfolding segment exceeded its event budget.
	ErrEventLimit = unfolding.ErrEventLimit
	// ErrNotSemiModular: the specification violates semi-modularity (output
	// persistency) and has no hazard-free speed-independent implementation.
	ErrNotSemiModular = core.ErrNotSemiModular
	// ErrCSC: the specification violates Complete State Coding; matched by
	// CSC conflicts from the unfolding flow and from both baselines.
	ErrCSC = errors.New("punt: specification has a Complete State Coding conflict")
	// ErrLimit: a state, node or event resource budget was exceeded; matched
	// by every flavour of resource exhaustion, ErrEventLimit included.
	ErrLimit = errors.New("punt: resource limit exceeded")
	// ErrBudget: a WithDeadline wall-clock or WithMemoryBudget heap budget
	// was exhausted by the attempt's watchdog.  Distinct from ErrLimit (a
	// structural engine bound) and from KindCanceled (the caller's own
	// context): both ErrLimit and ErrBudget are retryable through the
	// WithFallback degradation ladder.
	ErrBudget = errors.New("punt: resource budget exhausted")
	// ErrVerification: the implementation failed the closed-loop verification
	// (Verify); matched by conformance, hazard and liveness violations alike.
	ErrVerification = errors.New("punt: implementation fails verification")
	// ErrFormat: a serialized Result document (wire or disk) is malformed —
	// not JSON, wrong format version, an embedded specification that does
	// not load, missing or invalid implementation, or a spec-hash mismatch.
	// The cache layers treat it as a miss; remote clients see a decode
	// failure they can match with errors.Is.
	ErrFormat = errors.New("punt: malformed result document")
	// ErrUnknownEngine: an engine name is neither a registered backend nor
	// "portfolio"; the CLI and the daemon render it as a usage error.
	ErrUnknownEngine = errors.New("punt: unknown engine")
)

// DiagKind classifies a Diagnostic.
type DiagKind int

// Diagnostic kinds.
const (
	KindUnknown DiagKind = iota
	// KindParse: the ".g" input could not be parsed or finalised.
	KindParse
	// KindNotSafe: the net is not 1-safe.
	KindNotSafe
	// KindInconsistent: the specification violates consistent state
	// assignment (a signal rises when already 1, or a marking is reachable
	// with two codes).
	KindInconsistent
	// KindNotSemiModular: an excited output signal can be disabled.
	KindNotSemiModular
	// KindCSC: two reachable states share a binary code but disagree on the
	// excited outputs.
	KindCSC
	// KindLimit: an event/state/node resource budget was exceeded.
	KindLimit
	// KindCanceled: the context was cancelled or its deadline expired.
	KindCanceled
	// KindConformance: the implementation can drive an output edge the
	// specification does not enable (Verify).
	KindConformance
	// KindHazard: an excited gate of the implementation can be disabled
	// before it fires, so its output can glitch (Verify).
	KindHazard
	// KindLiveness: a specification-enabled output transition can never be
	// produced by the implementation (Verify).
	KindLiveness
	// KindResolved: informational, never returned as an error — the
	// WithResolveCSC resolver repaired a CSC-conflicted specification by
	// inserting internal state signals; see Result.Resolution.
	KindResolved
	// KindBudget: the attempt exhausted its WithDeadline wall-clock or
	// WithMemoryBudget heap budget; the Diagnostic wraps a *BudgetError
	// carrying the attempt's partial stats (elapsed time, heap growth, last
	// observed segment/state-space size).
	KindBudget
	// KindDegraded: informational, never returned as an error — the result
	// was produced by a WithFallback step after the primary configuration
	// ran out of resources; see Result.Degradation and Stats.Attempts.
	KindDegraded
	// KindPanic: a backend panicked and the dispatch layer recovered it into
	// a diagnostic (wrapping a *PanicError with the captured stack) instead
	// of crashing the process.
	KindPanic
	// KindIndivisible: informational, never returned as an error — the
	// decompose backend found no way to factor the specification and fell
	// through to its inner engine unchanged; see Result.Decomposition.  The
	// inner engine's name is in Signal.
	KindIndivisible
)

// String names the kind.
func (k DiagKind) String() string {
	switch k {
	case KindParse:
		return "parse error"
	case KindNotSafe:
		return "not safe"
	case KindInconsistent:
		return "inconsistent state assignment"
	case KindNotSemiModular:
		return "not semi-modular"
	case KindCSC:
		return "CSC conflict"
	case KindLimit:
		return "resource limit"
	case KindCanceled:
		return "canceled"
	case KindConformance:
		return "conformance violation"
	case KindHazard:
		return "hazard"
	case KindLiveness:
		return "lost liveness"
	case KindResolved:
		return "CSC resolved"
	case KindBudget:
		return "budget exhausted"
	case KindDegraded:
		return "degraded"
	case KindPanic:
		return "backend panic"
	case KindIndivisible:
		return "indivisible"
	default:
		return "error"
	}
}

// IsVerification reports whether the kind is one of the closed-loop
// verification failures (conformance, hazard, liveness).
func (k DiagKind) IsVerification() bool {
	return k == KindConformance || k == KindHazard || k == KindLiveness
}

// Diagnostic is the structured error type of the public API: every failing
// facade operation returns one (possibly wrapping a lower-level engine
// error), so callers branch on Kind or on the offending Signal/Place/Trace
// instead of parsing error strings.
//
// errors.Is continues to work through a Diagnostic: the wrapped engine error
// is reachable via Unwrap, and the unified sentinels ErrCSC and ErrLimit are
// matched by Kind.
type Diagnostic struct {
	// Op is the facade operation that failed: "parse", "load", "synthesize",
	// "unfold", "stategraph", "verify" or "differential".
	Op string
	// Spec names the specification, when known.
	Spec string
	// Kind classifies the failure.
	Kind DiagKind
	// Signal is the offending signal name, when the failure pins one down
	// (CSC conflicts, inconsistency on a signal edge).
	Signal string
	// Place is the offending place name, when one is known (safeness
	// violations, shared conflict places of persistency violations).
	Place string
	// Trace lists the offending transitions/events leading to the failure,
	// when known: the overloading transition of a safeness violation, the
	// inconsistent transition, or the disabled/disabling event pairs of a
	// semi-modularity violation.
	Trace []string
	// Attempts records the per-attempt breakdown of a Synthesize call that
	// walked the WithFallback degradation ladder before failing: one entry
	// per configuration tried, each with its outcome and duration.
	Attempts []Attempt
	// Err is the underlying engine error.
	Err error
}

// Error renders the diagnostic.
func (d *Diagnostic) Error() string {
	var sb strings.Builder
	sb.WriteString("punt: ")
	if d.Op != "" {
		sb.WriteString(d.Op)
	}
	if d.Spec != "" {
		fmt.Fprintf(&sb, " %s", d.Spec)
	}
	sb.WriteString(": ")
	if d.Err != nil {
		sb.WriteString(d.Err.Error())
	} else {
		sb.WriteString(d.Kind.String())
	}
	return sb.String()
}

// Unwrap exposes the underlying engine error to errors.Is/errors.As.
func (d *Diagnostic) Unwrap() error { return d.Err }

// Is matches the unified sentinels that the engine errors cannot reach
// through the Unwrap chain alone.
func (d *Diagnostic) Is(target error) bool {
	switch target {
	case ErrCSC:
		return d.Kind == KindCSC
	case ErrLimit:
		return d.Kind == KindLimit
	case ErrBudget:
		return d.Kind == KindBudget
	case ErrVerification:
		return d.Kind.IsVerification()
	default:
		return false
	}
}

// diagnose wraps an engine error into a Diagnostic, extracting structure from
// the typed errors the engines report.  A nil err returns nil; an error that
// already is a Diagnostic is returned unchanged.
func diagnose(op, spec string, err error) error {
	if err == nil {
		return nil
	}
	var prior *Diagnostic
	if errors.As(err, &prior) {
		return err
	}
	d := &Diagnostic{Op: op, Spec: spec, Kind: KindUnknown, Err: err}

	var (
		unsafeErr   *unfolding.UnsafeError
		unfIncons   *unfolding.InconsistencyError
		sgIncons    *stategraph.InconsistencyError
		smErr       *core.SemiModularityError
		coreCSC     *core.CSCError
		baselineCSC *baseline.CSCError
		violation   *verify.Violation
		unresolved  *resolve.UnresolvedError
		budget      *BudgetError
		panicked    *PanicError
	)
	switch {
	case errors.As(err, &budget):
		// Checked before the context cases: a budget trip surfaces as a
		// context cancellation to the engines, but the *cause* is the budget.
		d.Kind = KindBudget
	case errors.As(err, &panicked):
		d.Kind = KindPanic
		d.Trace = []string{fmt.Sprintf("backend %q panicked: %v", panicked.Backend, panicked.Value)}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		d.Kind = KindCanceled
	case errors.As(err, &violation):
		switch violation.Kind {
		case verify.Conformance:
			d.Kind = KindConformance
		case verify.Hazard:
			d.Kind = KindHazard
		case verify.Liveness:
			d.Kind = KindLiveness
		}
		d.Signal = violation.Signal
		d.Trace = violation.TraceStrings()
	case errors.As(err, &unsafeErr):
		d.Kind = KindNotSafe
		d.Place = unsafeErr.Place
		if unsafeErr.Transition != "" {
			d.Trace = []string{unsafeErr.Transition}
		}
	case errors.As(err, &unfIncons):
		d.Kind = KindInconsistent
		d.Trace = []string{unfIncons.Transition}
	case errors.As(err, &sgIncons):
		d.Kind = KindInconsistent
		d.Trace = []string{sgIncons.Transition}
	case errors.As(err, &smErr):
		d.Kind = KindNotSemiModular
		if len(smErr.Violations) > 0 {
			d.Place = smErr.Violations[0].Place
		}
		for _, v := range smErr.Violations {
			d.Trace = append(d.Trace, v.String())
		}
	case errors.As(err, &coreCSC):
		d.Kind = KindCSC
		d.Signal = coreCSC.Signal
	case errors.As(err, &baselineCSC):
		d.Kind = KindCSC
		d.Signal = baselineCSC.Signal
		if baselineCSC.Conflict != "" {
			d.Trace = []string{baselineCSC.Conflict}
		}
	case errors.As(err, &unresolved):
		// The resolver could not repair every conflict within its signal
		// budget: the specification still violates CSC.
		d.Kind = KindCSC
	case errors.Is(err, unfolding.ErrEventLimit),
		errors.Is(err, baseline.ErrLimit),
		errors.Is(err, stategraph.ErrStateLimit),
		errors.Is(err, verify.ErrStateLimit):
		d.Kind = KindLimit
	case errors.Is(err, unfolding.ErrNotSafe):
		d.Kind = KindNotSafe
	case errors.Is(err, core.ErrNotSemiModular):
		d.Kind = KindNotSemiModular
	case errors.Is(err, baseline.ErrCSC):
		d.Kind = KindCSC
	}
	return d
}
