package punt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"punt/gates"
	"punt/internal/core"
	"punt/internal/faultinject"
	"punt/internal/resolve"
	"punt/internal/verify"
)

// Mode selects how the unfolding-based flow derives covers.
type Mode = core.Mode

// Synthesis modes.
const (
	// Approximate derives covers from concurrency information local to the
	// segment and refines them only where they interfere (the default).
	Approximate Mode = core.Approximate
	// Exact enumerates the states encapsulated by every slice.
	Exact Mode = core.Exact
)

// Progress is a coarse progress notification delivered to the WithProgress
// callback during synthesis.
type Progress struct {
	// Engine names the backend delivering the notification; in portfolio
	// mode it identifies the contender, so interleaved notifications stay
	// attributable.
	Engine string `json:"engine,omitempty"`
	// Stage depends on the engine: the unfolding flow reports "unfold" while
	// the segment is under construction, the baselines report "build" once
	// the state space exists; every engine then reports "covers" when the
	// covers of a signal are about to be derived.
	Stage string `json:"stage"`
	// Signal names the signal being processed during the "covers" stage.
	Signal string `json:"signal,omitempty"`
	// Events is the number of segment events built so far (final size during
	// "covers"; unfolding engine only).
	Events int `json:"events,omitempty"`
	// States is the size of the state space (state-graph engines only).
	States int `json:"states,omitempty"`
}

// config collects the functional options of a Synthesizer.
type config struct {
	mode       Mode
	arch       gates.Architecture
	engine     string   // registered backend name or Portfolio; empty = Unfolding
	contenders []string // backends the Portfolio races; empty = defaultContenders
	cache      Cache
	maxEvents  int
	maxStates  int
	maxNodes   int
	workers    int
	inner      string         // decompose backend's inner engine; empty = unfolding
	resolveCSC int            // max internal signals the CSC resolver may insert; 0 = disabled
	deadline   time.Duration  // per-attempt wall-clock budget; 0 = none
	memBudget  int64          // per-attempt heap-growth budget in bytes; 0 = none
	fallback   []FallbackStep // degradation ladder tried on ErrLimit/ErrBudget
	progress   func(Progress)
}

// selection names the config's backend selection the way Stats.Backend and
// the cache key do: the backend name, or the portfolio with its contender
// list.
func (c *config) selection() string {
	switch c.engine {
	case "":
		return Unfolding
	case Portfolio:
		return "portfolio(" + strings.Join(c.portfolioContenders(), ",") + ")"
	}
	return c.engine
}

// portfolioContenders is the contender list the Portfolio races.
func (c *config) portfolioContenders() []string {
	if len(c.contenders) == 0 {
		return defaultContenders
	}
	return c.contenders
}

// Option configures a Synthesizer (and the package-level Batch, Unfold and
// BuildStateGraph helpers).
type Option func(*config)

// WithMode selects exact or approximate cover derivation for the unfolding
// engine.
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithArch selects the implementation architecture (default
// gates.ComplexGate).
func WithArch(a gates.Architecture) Option { return func(c *config) { c.arch = a } }

// WithMaxEvents bounds the size of the unfolding segment; exceeding it fails
// with ErrEventLimit (0 = the engine default of 1,000,000).
func WithMaxEvents(n int) Option { return func(c *config) { c.maxEvents = n } }

// WithMaxStates bounds the explicit state-graph engines; exceeding it fails
// with ErrLimit (0 = unlimited).
func WithMaxStates(n int) Option { return func(c *config) { c.maxStates = n } }

// WithMaxNodes bounds the symbolic engine's BDD size; exceeding it fails with
// ErrLimit (0 = unlimited).
func WithMaxNodes(n int) Option { return func(c *config) { c.maxNodes = n } }

// WithEngine selects the synthesis engine by name: any registered backend
// (Unfolding, Explicit, Symbolic, Decompose, or a name added with Register)
// or Portfolio, the scheduler that races the WithContenders list (the three
// monolithic builtins by default).  WithEngine(Unfolding) restores the
// default.  An unknown name fails at Synthesize time with a *Diagnostic
// matching ErrUnknownEngine and listing the registered backends.
func WithEngine(name string) Option { return func(c *config) { c.engine = name } }

// WithContenders selects the portfolio scheduler over the named registered
// backends: they are raced concurrently under a shared context, the first
// success wins, the losers are cancelled promptly, and Stats.Contenders
// records every contender's outcome.  Without arguments the portfolio races
// Unfolding, Explicit and Symbolic, as plain WithEngine(Portfolio) does.
// WithWorkers bounds how many contenders run at once; with WithWorkers(1)
// the contenders run sequentially in the given order, so the winner is
// deterministic.
func WithContenders(names ...string) Option {
	return func(c *config) {
		c.engine = Portfolio
		c.contenders = append([]string(nil), names...)
	}
}

// WithDecomposeInner names the engine the Decompose backend synthesizes each
// component with — and falls through to, with zero overhead, when the
// specification has no independent or articulated components.  The default is
// "unfolding"; "decompose" and "portfolio" are rejected at Synthesize time.
// The inner engine runs under the decompose backend's shared cancellation, so
// a failing component aborts its siblings promptly.
func WithDecomposeInner(name string) Option { return func(c *config) { c.inner = name } }

// DefaultResolveSignals is the inserted-signal bound WithResolveCSC applies
// when given a non-positive limit.
const DefaultResolveSignals = resolve.DefaultMaxSignals

// WithResolveCSC enables automatic Complete State Coding conflict resolution:
// when the selected backend (the portfolio scheduler included) rejects a
// specification with ErrCSC, the synthesizer repairs it by inserting up to
// maxSignals fresh internal state signals (csc0, csc1, …) that disambiguate
// the conflicting states, re-synthesises the repaired specification, and
// checks the result with the closed-loop verifier against the post-insertion
// specification before returning it.  maxSignals <= 0 applies
// DefaultResolveSignals.
//
// A resolved Result carries the repaired specification in Result.Spec, the
// insertion summary in Result.Resolution (a KindResolved informational
// diagnostic) and the counters in Stats.CSCSignalsInserted and
// Stats.CSCIterations.  When the conflicts cannot be eliminated within the
// budget, Synthesize fails with a KindCSC diagnostic as before (still matched
// by errors.Is against ErrCSC).
func WithResolveCSC(maxSignals int) Option {
	return func(c *config) {
		if maxSignals <= 0 {
			maxSignals = DefaultResolveSignals
		}
		c.resolveCSC = maxSignals
	}
}

// WithCache installs a synthesis result cache, shared by every Synthesize and
// Batch call that carries it.  Results are keyed by the content hash of the
// specification (Spec.Hash) combined with the canonicalised engine
// configuration, so synthesising an identical specification again — even one
// re-parsed into a different *Spec — is a lookup instead of a re-run.  Cache
// hits return a copy whose Stats.Cached is true.  See NewLRU for the builtin
// sharded in-memory implementation.
func WithCache(cache Cache) Option { return func(c *config) { c.cache = cache } }

// WithProgress installs a callback receiving coarse progress notifications.
// The callback runs on the synthesizing goroutine and must be cheap; under
// Batch and in portfolio mode it is invoked concurrently, with
// Progress.Engine attributing each notification to its backend.
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// WithWorkers bounds how many independent jobs run at once: Batch
// specifications (0 = GOMAXPROCS), portfolio contenders (0 = all at once),
// decompose components and the CSC resolver's candidate validations (<= 1
// keeps the last two sequential).  These jobs share no state, and the
// unfolding segment is always built by one goroutine, so a WithWorkers(n > 1)
// run produces output byte-identical to the sequential one and the
// result-cache key deliberately excludes the worker count.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// Contender records the outcome of one portfolio contender.
type Contender struct {
	// Engine is the contender's backend name.
	Engine string
	// Winner marks the contender whose result was kept.
	Winner bool
	// Started reports whether the scheduler launched the contender at all; a
	// contender stays unstarted when a winner emerged before a worker slot
	// freed up for it.
	Started bool
	// Elapsed is the contender's wall-clock run time (zero when unstarted).
	Elapsed time.Duration
	// Err is the contender's failure: nil for the winner (and for unstarted
	// contenders), a cancellation diagnostic for aborted losers.
	Err error
	// Sub is the contender's own sub-engine breakdown, when the contender is
	// itself composite: the per-component runs of a decompose contender roll
	// up here instead of appearing as top-level contenders of the race.
	Sub []Contender
}

// String renders the contender outcome.
func (c Contender) String() string {
	var s string
	switch {
	case c.Winner:
		s = fmt.Sprintf("%s=%v(winner)", c.Engine, c.Elapsed.Round(time.Microsecond))
	case !c.Started:
		return fmt.Sprintf("%s=unstarted", c.Engine)
	case c.Err != nil:
		s = fmt.Sprintf("%s=%v(%s)", c.Engine, c.Elapsed.Round(time.Microsecond), contenderErrLabel(c.Err))
	default:
		s = fmt.Sprintf("%s=%v", c.Engine, c.Elapsed.Round(time.Microsecond))
	}
	if len(c.Sub) > 0 {
		var sb strings.Builder
		sb.WriteString(s)
		sb.WriteString("{")
		for i, sub := range c.Sub {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(sub.String())
		}
		sb.WriteString("}")
		return sb.String()
	}
	return s
}

// ComponentStat records one component of a decomposed synthesis run: the
// projected sub-specification's identity and size, the backend that
// synthesized it, and its contribution to the merged totals.
type ComponentStat struct {
	// Name is the projected sub-specification's name.
	Name string `json:"name"`
	// Backend names the inner backend that synthesized the component.
	Backend string `json:"backend,omitempty"`
	// Signals and Outputs size the component: total signals and the
	// output/internal signals whose gates it contributed.
	Signals int `json:"signals"`
	Outputs int `json:"outputs"`
	// Articulated marks components obtained by splitting at an articulation
	// transition rather than a plain disconnection.
	Articulated bool `json:"articulated,omitempty"`
	// Elapsed is the component's wall-clock synthesis time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Events (unfolding inner engine) / States (state-graph inner engines)
	// size the component's search space.
	Events int `json:"events,omitempty"`
	States int `json:"states,omitempty"`
	// Literals is the component implementation's literal count.
	Literals int `json:"literals,omitempty"`
}

// String renders the component record.
func (c ComponentStat) String() string {
	size := ""
	if c.Events > 0 {
		size = fmt.Sprintf(" events=%d", c.Events)
	} else if c.States > 0 {
		size = fmt.Sprintf(" states=%d", c.States)
	}
	return fmt.Sprintf("%s=%v(signals=%d outputs=%d%s)",
		c.Name, c.Elapsed.Round(time.Microsecond), c.Signals, c.Outputs, size)
}

// Stats is the per-run timing and size breakdown, named after the columns of
// the paper's Table 1.  The unfolding engine fills the segment fields; the
// state-graph engines fill States.  For the baselines UnfTime is the
// state-space construction time, SynTime the cover extraction and EspTime the
// two-level minimisation, so the phases stay comparable across engines.
type Stats struct {
	// Engine names the engine that produced the result: the winning
	// contender in portfolio mode, the inner engine of a decompose run that
	// fell through, otherwise the selected backend itself.
	Engine string `json:"engine"`
	// Backend names the backend that produced the result; in portfolio mode
	// it names the winning contender.
	Backend string `json:"backend,omitempty"`

	// UnfTime is the segment (or state-space) construction time ("UnfTim").
	UnfTime time.Duration `json:"unf_time_ns"`
	// SynTime is the cover derivation time ("SynTim").
	SynTime time.Duration `json:"syn_time_ns"`
	// EspTime is the two-level minimisation time ("EspTim").
	EspTime time.Duration `json:"esp_time_ns"`
	// Total is the complete wall-clock synthesis time.  ("TotTim").
	Total time.Duration `json:"total_ns"`

	// Segment size (unfolding engine).
	Events     int `json:"events,omitempty"`
	Conditions int `json:"conditions,omitempty"`
	Cutoffs    int `json:"cutoffs,omitempty"`
	// States is the number of reachable states (state-graph engines).
	States int `json:"states,omitempty"`

	// Refinement counters (unfolding engine, approximate mode).
	TermsRefined   int `json:"terms_refined,omitempty"`
	SignalsRefined int `json:"signals_refined,omitempty"`

	// Contenders is the per-contender breakdown of a portfolio run (empty
	// outside portfolio mode).
	Contenders []Contender `json:"contenders,omitempty"`
	// Decomposed reports that the decompose backend factored the
	// specification and the result was recombined from per-component runs;
	// Components carries the per-component breakdown.  An indivisible
	// specification that fell through to the inner engine leaves both empty
	// (see Result.Decomposition for the informational record).
	Decomposed bool `json:"decomposed,omitempty"`
	// Components is the per-component breakdown of a decomposed run.
	Components []ComponentStat `json:"components,omitempty"`
	// Attempts is the per-attempt breakdown of the Synthesize call: the
	// primary configuration plus every WithFallback step that ran, each
	// with its outcome and duration.  A single-attempt run has one entry;
	// len(Attempts) > 1 means the result was produced by the degradation
	// ladder (see Result.Degradation).
	Attempts []Attempt `json:"attempts,omitempty"`
	// Cached reports that the result was served from the WithCache cache
	// instead of a synthesis run; the timing fields then describe the
	// original (cold) run that populated the cache.
	Cached bool `json:"cached,omitempty"`

	// CSCSignalsInserted and CSCIterations record the WithResolveCSC repair
	// that produced the result: how many internal state signals were inserted
	// and in how many resolution rounds (both zero when the specification
	// satisfied CSC as given).
	CSCSignalsInserted int `json:"csc_signals_inserted,omitempty"`
	CSCIterations      int `json:"csc_iterations,omitempty"`
	// CSCCandidatesFailed counts resolver candidates whose validation
	// state-graph rebuild failed (the rewrite broke the net); a high count
	// explains an exhausted search.
	CSCCandidatesFailed int `json:"csc_candidates_failed,omitempty"`
	// CSCStatesReused / CSCStatesExpanded record the resolver's incremental
	// revalidation: parent states patched into each candidate graph without
	// re-exploration versus delta states actually explored.
	CSCStatesReused   int `json:"csc_states_reused,omitempty"`
	CSCStatesExpanded int `json:"csc_states_expanded,omitempty"`
	// CSCFullRebuilds counts candidate validations that fell back to a full
	// state-graph rebuild.
	CSCFullRebuilds int `json:"csc_full_rebuilds,omitempty"`

	// Workers is the WithWorkers parallelism the producing run was configured
	// with.  The output does not depend on it (and the cache key excludes it),
	// so cached results may report the original run's value.
	Workers int `json:"workers,omitempty"`
}

// String summarises the stats in the engine's natural vocabulary, covering
// every column of the paper's Table 1 (conditions and the refinement
// counters included for the unfolding flow).
func (s *Stats) String() string {
	var sb strings.Builder
	switch s.Engine {
	case Explicit, Symbolic:
		fmt.Fprintf(&sb, "engine=%s states=%d build=%v covers=%v minimize=%v total=%v",
			s.Engine, s.States, s.UnfTime.Round(time.Microsecond), s.SynTime.Round(time.Microsecond),
			s.EspTime.Round(time.Microsecond), s.Total.Round(time.Microsecond))
	default:
		fmt.Fprintf(&sb, "unf=%v syn=%v esp=%v total=%v events=%d conditions=%d cutoffs=%d refined-terms=%d refined-signals=%d",
			s.UnfTime.Round(time.Microsecond), s.SynTime.Round(time.Microsecond),
			s.EspTime.Round(time.Microsecond), s.Total.Round(time.Microsecond),
			s.Events, s.Conditions, s.Cutoffs, s.TermsRefined, s.SignalsRefined)
	}
	if s.Backend != "" && s.Backend != s.Engine {
		fmt.Fprintf(&sb, " backend=%s", s.Backend)
	}
	if len(s.Contenders) > 0 {
		sb.WriteString(" portfolio=[")
		for i, c := range s.Contenders {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(c.String())
		}
		sb.WriteByte(']')
	}
	if s.Decomposed {
		fmt.Fprintf(&sb, " decomposed=%d[", len(s.Components))
		for i, c := range s.Components {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(c.String())
		}
		sb.WriteByte(']')
	}
	if len(s.Attempts) > 1 {
		sb.WriteString(" attempts=[")
		for i, a := range s.Attempts {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(a.String())
		}
		sb.WriteByte(']')
	}
	if s.CSCSignalsInserted > 0 {
		fmt.Fprintf(&sb, " csc-inserted=%d csc-iterations=%d", s.CSCSignalsInserted, s.CSCIterations)
	}
	if s.CSCCandidatesFailed > 0 {
		fmt.Fprintf(&sb, " csc-candidates-failed=%d", s.CSCCandidatesFailed)
	}
	if s.CSCStatesReused > 0 || s.CSCFullRebuilds > 0 {
		fmt.Fprintf(&sb, " csc-states-reused=%d csc-states-expanded=%d csc-full-rebuilds=%d",
			s.CSCStatesReused, s.CSCStatesExpanded, s.CSCFullRebuilds)
	}
	if s.Workers > 1 {
		fmt.Fprintf(&sb, " workers=%d", s.Workers)
	}
	if s.Cached {
		sb.WriteString(" cached=true")
	}
	return sb.String()
}

// Result is the outcome of one successful synthesis run.
type Result struct {
	// Spec is the synthesised specification.  When the WithResolveCSC
	// resolver repaired the input, this is the repaired specification (the
	// one the implementation realises and verifies against); the inserted
	// internal signals are visible in its signal list and Text.
	Spec *Spec
	// Impl is the gate-level implementation; see punt/gates for the model,
	// including per-signal covers.
	Impl *gates.Implementation
	// Stats is the Table-1-style timing and size breakdown.
	Stats Stats
	// Resolution, when non-nil, is the KindResolved informational diagnostic
	// describing the WithResolveCSC repair: the inserted signals in Signal
	// and one rendered insertion per Trace entry.  It is not an error — the
	// synthesis succeeded — merely the structured record of what was changed.
	Resolution *Diagnostic
	// Degradation, when non-nil, is the KindDegraded informational
	// diagnostic recording that the result came from a WithFallback step
	// after the primary configuration exhausted its resources: the winning
	// step's name in Signal, one rendered Attempt per Trace entry.  Like
	// Resolution it is never an error — the synthesis succeeded, merely
	// under a cheaper configuration than asked for.
	Degradation *Diagnostic
	// Decomposition, when non-nil, is the KindIndivisible informational
	// diagnostic recording that the decompose backend found no way to factor
	// the specification and delegated to its inner engine (named in Signal)
	// unchanged.  A factored run leaves it nil and reports through
	// Stats.Decomposed / Stats.Components instead.  Never an error.
	Decomposition *Diagnostic
}

// Resolved reports whether the result was produced through the WithResolveCSC
// repair of a CSC-conflicted specification.
func (r *Result) Resolved() bool { return r.Resolution != nil }

// Degraded reports whether the result was produced by a WithFallback
// degradation step instead of the primary configuration.
func (r *Result) Degraded() bool { return r.Degradation != nil }

// Decomposed reports whether the result was recombined from per-component
// runs of the decompose backend.
func (r *Result) Decomposed() bool { return r.Stats.Decomposed }

// Eqn renders the implementation as boolean equations.
func (r *Result) Eqn() string { return r.Impl.Eqn() }

// Verilog renders the implementation as a behavioural Verilog module.
func (r *Result) Verilog() string { return r.Impl.Verilog() }

// Literals is the total literal count of the implementation.
func (r *Result) Literals() int { return r.Impl.Literals() }

// Gate returns the gate implementing the named signal.
func (r *Result) Gate(signal string) (gates.Gate, bool) { return r.Impl.Gate(signal) }

// Synthesizer is the configured synthesis pipeline.  The zero-cost New
// constructor applies functional options; a Synthesizer is immutable and safe
// for concurrent use.
type Synthesizer struct {
	cfg config
}

// New returns a Synthesizer with the given options applied.
func New(opts ...Option) *Synthesizer {
	s := &Synthesizer{}
	for _, o := range opts {
		o(&s.cfg)
	}
	return s
}

// backendConfig projects the Synthesizer's options onto the engine-agnostic
// configuration handed to backends.
func (s *Synthesizer) backendConfig() BackendConfig {
	return BackendConfig{
		Mode:      s.cfg.mode,
		Arch:      s.cfg.arch,
		MaxEvents: s.cfg.maxEvents,
		MaxStates: s.cfg.maxStates,
		MaxNodes:  s.cfg.maxNodes,
		Workers:   s.cfg.workers,
		Inner:     s.cfg.inner,
		Progress:  s.cfg.progress,
	}
}

// defaultContenders is the portfolio raced by plain WithEngine(Portfolio):
// the paper's three-way engine comparison.
var defaultContenders = []string{Unfolding, Explicit, Symbolic}

// resolveBackends maps the configured engine selection onto registered
// backends: a single backend for the direct engines, a contender list for the
// portfolio scheduler.
func (s *Synthesizer) resolveBackends() (single Backend, contenders []Backend, err error) {
	if s.cfg.engine != Portfolio {
		b, err := lookupBackend(s.cfg.selection())
		return b, nil, err
	}
	names := s.cfg.portfolioContenders()
	contenders = make([]Backend, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == Portfolio {
			return nil, nil, fmt.Errorf("punt: a portfolio cannot race itself")
		}
		if seen[name] {
			return nil, nil, fmt.Errorf("punt: duplicate portfolio contender %q", name)
		}
		seen[name] = true
		b, err := lookupBackend(name)
		if err != nil {
			return nil, nil, err
		}
		contenders = append(contenders, b)
	}
	return nil, contenders, nil
}

// Synthesize derives a speed-independent implementation of spec with the
// configured engine: it consults the WithCache cache, then walks the attempt
// ladder — the primary configuration followed by every WithFallback step —
// dispatching each attempt to the single backend or the portfolio scheduler
// under its own WithDeadline/WithMemoryBudget watchdog.  It honours ctx:
// cancellation aborts the segment/state construction loops promptly and the
// error (wrapped in a *Diagnostic) matches context.Canceled /
// context.DeadlineExceeded.  Every attempt is recorded in Stats.Attempts on
// success and Diagnostic.Attempts on failure; a backend panic surfaces as a
// KindPanic diagnostic on every path, never a crash.
func (s *Synthesizer) Synthesize(ctx context.Context, spec *Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Check(ctx, faultinject.OpFacadeSynthesize); err != nil {
		return nil, diagnose("synthesize", spec.Name(), err)
	}
	var key string
	useCache := s.cfg.cache != nil
	if useCache {
		key = s.CacheKey(spec)
		if res, ok := s.Cached(ctx, spec); ok {
			return res, nil
		}
	}

	steps := s.attemptConfigs()
	attempts := make([]Attempt, 0, len(steps))
	var res *Result
	var err error
	for _, ac := range steps {
		start := time.Now()
		res, err = synthesizeAttempt(ctx, ac.cfg, spec)
		outcome := "ok"
		if err != nil {
			outcome = outcomeLabel(err)
		}
		attempts = append(attempts, Attempt{
			Backend: ac.cfg.selection(),
			Step:    ac.step,
			Outcome: outcome,
			Elapsed: time.Since(start),
		})
		// Only resource exhaustion falls through to the next rung: errors the
		// ladder cannot fix (CSC, safeness, the caller's own cancellation)
		// fail immediately with the primary attempt's diagnostic.
		if err == nil || !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		var d *Diagnostic
		if errors.As(err, &d) {
			d.Attempts = attempts
		}
		return nil, err
	}
	res.Stats.Attempts = attempts
	if n := len(attempts); n > 1 {
		traces := make([]string, n)
		for i, a := range attempts {
			traces[i] = a.String()
		}
		res.Degradation = &Diagnostic{
			Op:     "synthesize",
			Spec:   spec.Name(),
			Kind:   KindDegraded,
			Signal: attempts[n-1].Step,
			Trace:  traces,
		}
	}
	// Only primary-configuration results enter the cache — a degraded result
	// must never be served to a caller whose configuration could afford the
	// real one — and never a result produced under an already-expired
	// context, whose work may be truncated.
	if useCache && !res.Degraded() && ctx.Err() == nil &&
		faultinject.Check(ctx, faultinject.OpCachePut) == nil {
		cachePut(ctx, s.cfg.cache, key, res)
	}
	return res, nil
}

// CacheKey returns the content-addressed cache key Synthesize would use for
// spec under this Synthesizer's configuration: the specification hash crossed
// with every configuration field that can change the result.  It is the key
// the puntd daemon reports and the one external cache tooling should use.
func (s *Synthesizer) CacheKey(spec *Spec) string { return s.cacheKey(spec) }

// Cached reports whether a usable result for spec is already present in the
// configured cache, returning it adapted to the caller (Stats.Cached set)
// without running any synthesis.  It returns false when no cache is
// configured.  The puntd server uses this to answer warm hits before
// admission control, so repeat requests are never queued behind cold work.
//
// Like Synthesize's own cache path, a faulted cache lookup degrades to a
// miss, and so does a hit that fails validation: the cache is an
// accelerator, never a point of failure.
func (s *Synthesizer) Cached(ctx context.Context, spec *Spec) (*Result, bool) {
	if s.cfg.cache == nil {
		return nil, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if faultinject.Check(ctx, faultinject.OpCacheGet) != nil {
		return nil, false
	}
	res, ok := cacheGet(ctx, s.cfg.cache, s.cacheKey(spec))
	if !ok || !usableCacheHit(res) {
		return nil, false
	}
	return cachedResult(res, spec), true
}

// usableCacheHit validates a cache hit before it is served: a corrupted or
// truncated entry (however it got there — a buggy Cache implementation, a
// faulted store) is treated as a miss, never returned to a caller.
func usableCacheHit(res *Result) bool {
	return res != nil && res.Impl != nil && res.Spec != nil
}

// outcomeLabel compresses an attempt's failure for the Attempts record.
func outcomeLabel(err error) string {
	var d *Diagnostic
	if errors.As(err, &d) {
		return d.Kind.String()
	}
	return "failed"
}

// attemptConfig is one rung of the attempt ladder: the step name (empty for
// the primary configuration) and the fully derived config.
type attemptConfig struct {
	step string
	cfg  config
}

// attemptConfigs derives the attempt ladder from the options: the primary
// configuration first, then one config per WithFallback step with the step's
// options applied on top of the base.
func (s *Synthesizer) attemptConfigs() []attemptConfig {
	out := make([]attemptConfig, 0, 1+len(s.cfg.fallback))
	out = append(out, attemptConfig{cfg: s.cfg})
	for _, st := range s.cfg.fallback {
		c := s.cfg
		// The step's options apply on top of the base (options never write
		// into a shared slice, so the copy is independent); nested ladders
		// are stripped.
		for _, o := range st.Options {
			o(&c)
		}
		c.fallback = nil
		out = append(out, attemptConfig{step: st.Name, cfg: c})
	}
	return out
}

// synthesizeAttempt runs one configuration attempt end to end: backend
// resolution, budget watchdog, dispatch and CSC resolution.  Panics anywhere
// in the attempt — a backend, the resolver, the verifier — are recovered
// into KindPanic diagnostics here, so every entry point (plain Synthesize,
// Batch, the portfolio) degrades to a structured error instead of crashing.
func synthesizeAttempt(ctx context.Context, cfg config, spec *Spec) (res *Result, err error) {
	att := &Synthesizer{cfg: cfg}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, diagnose("synthesize", spec.Name(),
				&PanicError{Backend: cfg.selection(), Value: p, Stack: debug.Stack()})
		}
	}()
	single, contenders, err := att.resolveBackends()
	if err != nil {
		return nil, diagnose("synthesize", spec.Name(), err)
	}
	bcfg := att.backendConfig()
	actx, release := startWatchdog(ctx, cfg.deadline, cfg.memBudget, &bcfg)
	defer release()
	res, err = att.dispatch(actx, single, contenders, spec, bcfg)
	if err != nil && cfg.resolveCSC > 0 && errors.Is(err, ErrCSC) {
		res, err = att.resolveAndRetry(actx, single, contenders, spec, bcfg)
	}
	// The watchdog tripped: even a result delivered after the trip is the
	// product of an over-budget attempt — possibly truncated work that must
	// not escape to the caller or the cache.
	if be := budgetCause(actx); be != nil {
		return nil, diagnose("synthesize", spec.Name(), be)
	}
	return res, err
}

// dispatch runs the resolved backend selection: the single backend, or the
// portfolio scheduler over the contenders.
func (s *Synthesizer) dispatch(ctx context.Context, single Backend, contenders []Backend, spec *Spec, bcfg BackendConfig) (*Result, error) {
	if single != nil {
		return runBackend(ctx, single, spec, bcfg)
	}
	return runPortfolio(ctx, contenders, spec, bcfg, s.cfg.workers)
}

// resolveAndRetry is the WithResolveCSC path: the backend rejected spec with a
// CSC conflict, so the resolver inserts internal state signals until Complete
// State Coding holds, the repaired specification is re-dispatched to the same
// backend selection, and the resulting circuit is proven conformant,
// hazard-free and live by the closed-loop verifier against the post-insertion
// specification.  Any failure along the way — unresolvable conflicts, the
// retry, the verification — fails the Synthesize call as a *Diagnostic.
func (s *Synthesizer) resolveAndRetry(ctx context.Context, single Backend, contenders []Backend, spec *Spec, bcfg BackendConfig) (*Result, error) {
	if p := s.cfg.progress; p != nil {
		p(Progress{Engine: "resolve", Stage: "resolve"})
	}
	rg, rrep, err := resolve.Resolve(ctx, spec.g, resolve.Options{
		MaxSignals: s.cfg.resolveCSC,
		MaxStates:  s.cfg.maxStates,
		Workers:    s.cfg.workers,
	})
	if err != nil {
		return nil, diagnose("resolve", spec.Name(), err)
	}
	resolved, err := wrapSpec(ctx, rg)
	if err != nil {
		return nil, err
	}
	res, err := s.dispatch(ctx, single, contenders, resolved, bcfg)
	if err != nil {
		return nil, err
	}
	// The repair is only done when the repaired circuit provably conforms to
	// the post-insertion specification: close the loop before reporting
	// success.
	if _, verr := verify.Verify(ctx, rg, res.Impl, verify.Options{MaxStates: s.cfg.maxStates}); verr != nil {
		return nil, diagnose("resolve", spec.Name(), verr)
	}
	res.Stats.CSCSignalsInserted = len(rrep.Inserted)
	res.Stats.CSCIterations = rrep.Iterations
	res.Stats.CSCCandidatesFailed = rrep.CandidatesFailed
	res.Stats.CSCStatesReused = rrep.StatesReused
	res.Stats.CSCStatesExpanded = rrep.StatesExpanded
	res.Stats.CSCFullRebuilds = rrep.FullRebuilds
	traces := make([]string, len(rrep.Inserted))
	for i, in := range rrep.Inserted {
		traces[i] = in.String()
	}
	res.Resolution = &Diagnostic{
		Op:     "resolve",
		Spec:   spec.Name(),
		Kind:   KindResolved,
		Signal: strings.Join(rrep.Signals(), ","),
		Trace:  traces,
	}
	return res, nil
}
