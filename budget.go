package punt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Resource governance: per-attempt budgets enforced by a watchdog, and a
// degradation ladder that retries exhausted attempts under cheaper
// configurations.  The paper's truncated-unfolding segment is itself a
// degradation strategy — a bounded approximation in place of the full state
// space — and this layer makes the operational half of that idea a facade
// concept: a request that cannot be served exactly within its budget is
// served approximately (or by a cheaper engine), never by dying.

// WithDeadline bounds every synthesis attempt to the given wall-clock
// duration.  The budget applies per attempt: each WithFallback step (and
// each Batch item) gets a fresh deadline, while the caller's own context
// still bounds the call as a whole.  An attempt that exceeds its deadline
// fails with a KindBudget diagnostic wrapping a *BudgetError that carries
// the attempt's partial stats; d <= 0 disables the deadline.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// WithMemoryBudget bounds every synthesis attempt's heap growth to about the
// given number of bytes.  A watchdog goroutine samples runtime.MemStats
// while the attempt runs and aborts it with a KindBudget diagnostic when the
// heap has grown past the budget since the attempt started.  The measure is
// process-global (Go has no per-goroutine accounting), so concurrent
// synthesis shares the headroom; bytes <= 0 disables the budget.
func WithMemoryBudget(bytes int64) Option {
	return func(c *config) { c.memBudget = bytes }
}

// FallbackStep is one rung of the WithFallback degradation ladder: a named
// set of options applied on top of the Synthesizer's base configuration to
// produce a cheaper attempt.
type FallbackStep struct {
	// Name identifies the step in Stats.Attempts and diagnostics.
	Name string
	// Options is the configuration delta: typically WithMode(Approximate),
	// a lower WithMaxEvents/WithMaxStates, or an alternate WithEngine/
	// WithContenders.  Nested WithFallback options are ignored.
	Options []Option
}

// Fallback builds a FallbackStep for WithFallback.
func Fallback(name string, opts ...Option) FallbackStep {
	return FallbackStep{Name: name, Options: opts}
}

// WithFallback installs a degradation ladder: when an attempt fails with
// ErrLimit or ErrBudget — resource exhaustion, not a property of the
// specification — Synthesize retries through the given steps in order, each
// a cheaper configuration derived from the base options.  Every attempt is
// recorded in Stats.Attempts; a result produced by a fallback step is tagged
// with an informational KindDegraded diagnostic in Result.Degradation and is
// never cached (only primary-configuration results are, so the cache always
// answers with the best-quality result the configuration can produce).
// Failures that no amount of resources can fix (CSC conflicts, unsafe nets,
// semi-modularity violations, the caller's own cancellation) never trigger
// the ladder.
func WithFallback(steps ...FallbackStep) Option {
	return func(c *config) { c.fallback = append([]FallbackStep(nil), steps...) }
}

// Attempt records one rung of a Synthesize call's attempt ladder: which
// backend selection ran under which step, how it ended, and how long it
// took.  The full ladder appears in Stats.Attempts on success and in
// Diagnostic.Attempts on failure.
type Attempt struct {
	// Backend is the attempt's backend selection ("unfolding",
	// "portfolio(...)", a registered name, ...).
	Backend string `json:"backend"`
	// Step names the WithFallback step that configured the attempt; empty
	// for the primary configuration.
	Step string `json:"step,omitempty"`
	// Outcome is "ok" for the winning attempt, otherwise the failure's
	// diagnostic kind ("resource limit", "budget exhausted", ...).
	Outcome string `json:"outcome"`
	// Elapsed is the attempt's wall-clock duration.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// String renders the attempt.
func (a Attempt) String() string {
	step := a.Step
	if step == "" {
		step = "primary"
	}
	return fmt.Sprintf("%s[%s]=%s(%v)", step, a.Backend, a.Outcome, a.Elapsed.Round(time.Microsecond))
}

// BudgetError reports that an attempt's watchdog tripped, and with which
// partial progress: it is the structured payload behind every KindBudget
// diagnostic and wraps ErrBudget for errors.Is.
type BudgetError struct {
	// Deadline is the configured WithDeadline bound when the wall clock
	// tripped the watchdog (zero for a memory trip), MemoryBudget the
	// WithMemoryBudget bound when the heap did (zero for a deadline trip).
	Deadline     time.Duration
	MemoryBudget int64
	// Elapsed is how long the attempt had run when the watchdog fired;
	// HeapGrowth the heap delta (bytes) since the attempt started.
	Elapsed    time.Duration
	HeapGrowth int64
	// Events and States are the last engine-progress observations before
	// the trip — the size of the partial segment / state space the budget
	// bought, zero when the attempt died before the first notification.
	Events int
	States int
}

func (e *BudgetError) Error() string {
	var sb strings.Builder
	if e.Deadline > 0 {
		fmt.Fprintf(&sb, "%v: deadline %v exceeded after %v", ErrBudget, e.Deadline, e.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(&sb, "%v: memory budget %d bytes exceeded (heap grew %d bytes) after %v",
			ErrBudget, e.MemoryBudget, e.HeapGrowth, e.Elapsed.Round(time.Millisecond))
	}
	if e.Events > 0 {
		fmt.Fprintf(&sb, " (%d events built)", e.Events)
	}
	if e.States > 0 {
		fmt.Fprintf(&sb, " (%d states built)", e.States)
	}
	return sb.String()
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// PanicError reports a panicking backend, recovered at the central dispatch
// so that every entry point — plain Synthesize, Batch, the portfolio
// scheduler — turns the panic into a KindPanic diagnostic instead of
// crashing the process.  It carries the stack captured at recovery.
type PanicError struct {
	// Backend names the backend (or pipeline stage) that panicked.
	Backend string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("backend %q panicked: %v", e.Backend, e.Value)
}

// memSampleInterval is how often the watchdog samples runtime.MemStats when
// a memory budget is armed.  ReadMemStats briefly stops the world, so the
// sampling is deliberately coarse: memory exhaustion is a trend, not an
// instant.
const memSampleInterval = 20 * time.Millisecond

// watchdog enforces the per-attempt budgets: it derives a cancellable
// context for the attempt and trips it — with a *BudgetError cause carrying
// the partial stats — when the wall clock or the heap runs past the bounds.
type watchdog struct {
	cancel context.CancelCauseFunc
	stop   chan struct{}
	done   chan struct{}
	events atomic.Int64 // last engine-progress observations
	states atomic.Int64
}

// startWatchdog arms the configured budgets around one attempt.  It returns
// the context the attempt must run under and a release function (always
// non-nil) that stops the watchdog goroutine and waits for it to exit, so
// attempts never leak goroutines.  Progress sampling is spliced into
// cfg.Progress whether or not the caller installed a callback: the watchdog
// records the last events/states notification for the BudgetError.
func startWatchdog(ctx context.Context, deadline time.Duration, memBudget int64, cfg *BackendConfig) (context.Context, func()) {
	if deadline <= 0 && memBudget <= 0 {
		return ctx, func() {}
	}
	actx, cancel := context.WithCancelCause(ctx)
	w := &watchdog{cancel: cancel, stop: make(chan struct{}), done: make(chan struct{})}

	user := cfg.Progress
	cfg.Progress = func(p Progress) {
		if p.Events > 0 {
			w.events.Store(int64(p.Events))
		}
		if p.States > 0 {
			w.states.Store(int64(p.States))
		}
		if user != nil {
			user(p)
		}
	}

	//puntlint:ignore gohygiene the watchdog is central governance machinery joined by release(); swallowing its panics would silently disable budget enforcement
	go w.run(actx, deadline, memBudget)
	release := func() {
		close(w.stop)
		<-w.done
		cancel(context.Canceled)
	}
	return actx, release
}

// run is the watchdog goroutine: one timer for the deadline, one coarse
// MemStats ticker for the memory budget, both racing the attempt's end.
func (w *watchdog) run(ctx context.Context, deadline time.Duration, memBudget int64) {
	defer close(w.done)
	start := time.Now()

	var deadlineC <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		deadlineC = t.C
	}
	var memC <-chan time.Time
	var baseHeap uint64
	if memBudget > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		baseHeap = ms.HeapAlloc
		tk := time.NewTicker(memSampleInterval)
		defer tk.Stop()
		memC = tk.C
	}

	for {
		select {
		case <-w.stop:
			return
		case <-ctx.Done():
			return
		case <-deadlineC:
			w.trip(&BudgetError{Deadline: deadline, Elapsed: time.Since(start)})
			return
		case <-memC:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			growth := int64(ms.HeapAlloc) - int64(baseHeap)
			if growth > memBudget {
				w.trip(&BudgetError{MemoryBudget: memBudget, HeapGrowth: growth, Elapsed: time.Since(start)})
				return
			}
		}
	}
}

// trip cancels the attempt with the budget error as the context cause,
// stamped with the last progress observations.
func (w *watchdog) trip(be *BudgetError) {
	be.Events = int(w.events.Load())
	be.States = int(w.states.Load())
	w.cancel(be)
}

// budgetCause extracts the *BudgetError behind an attempt context that the
// watchdog tripped, nil when the context ended for any other reason.
func budgetCause(ctx context.Context) *BudgetError {
	cause := context.Cause(ctx)
	if cause == nil {
		return nil
	}
	var be *BudgetError
	if errors.As(cause, &be) {
		return be
	}
	return nil
}

// retryable reports whether the WithFallback ladder may retry after err:
// only resource exhaustion is — a cheaper configuration can change how much
// a request costs, never what the specification means.
func retryable(err error) bool {
	return errors.Is(err, ErrLimit) || errors.Is(err, ErrBudget)
}
