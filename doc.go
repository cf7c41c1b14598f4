// Package punt is a from-scratch Go reproduction of "Synthesis of Speed
// Independent Circuits from STG-unfolding Segment" (Semenov, Yakovlev,
// Pastor, Peña, Cortadella — DAC 1997).
//
// The library synthesises speed-independent asynchronous circuits from Signal
// Transition Graph specifications without building the full state graph:
// it constructs a finite STG-unfolding segment, partitions it into slices per
// output signal, derives approximated on/off-set covers from concurrency
// information local to the segment and refines them only where they
// interfere.  Explicit and BDD-based state-graph synthesizers are included as
// the baselines the paper compares against, together with the benchmark
// generators and the harness that regenerates Table 1 and Figure 6.
//
// This package is the public facade over the whole flow.  Load, LoadFile and
// Parse read ".g" specifications into an immutable Spec; New builds a
// Synthesizer from functional options (WithMode, WithArch, WithEngine,
// resource budgets, WithProgress); Synthesize(ctx, spec) runs the configured
// engine under context cancellation and returns a Result with the gate-level
// implementation (see punt/gates) and Table-1-style Stats.  Batch drives many
// specifications through a bounded worker pool with per-item error isolation.
// Failures are structured *Diagnostic values carrying the offending signal,
// place and trace, matchable against the package sentinels (ErrNotSafe,
// ErrEventLimit, ErrNotSemiModular, ErrCSC, ErrLimit, ErrVerification) with
// errors.Is.  Not every rejection is final: a Complete State Coding conflict
// (KindCSC) is repairable, and WithResolveCSC turns the rejection into an
// automatic repair — internal state signals csc0, csc1, … are inserted until
// CSC holds, the repaired specification is re-synthesised and proven
// conformant, hazard-free and live by the closed-loop verifier, and the
// result carries the repair record as a KindResolved informational
// diagnostic (Result.Resolution) plus Stats counters; only when the signal
// bound cannot repair the conflict does Synthesize still fail with KindCSC.
// Unfold and BuildStateGraph expose the segment and the explicit state graph
// for analysis (BuildStateGraph's CSCConflicts returns the structured
// conflict cores: state pairs, differing outputs, witness traces); the
// benchtab command re-runs the paper's evaluation.
//
// The engine layer is open: synthesis engines are Backend implementations in
// a package-level registry (Register, Backends), the builtin four included,
// and Synthesize is a thin dispatch over it.  An engine is selected by its
// registry name alone — WithEngine(name), where the Unfolding, Explicit,
// Symbolic, Decompose and Portfolio constants are those names — and an
// unknown name fails with ErrUnknownEngine.  Three composable subsystems
// build on the registry.  The portfolio scheduler (WithEngine(Portfolio),
// WithContenders) races backends
// concurrently under a shared context, returns the first success, cancels
// the losers promptly and records every contender's outcome in
// Stats.Contenders, with Progress.Engine attributing interleaved progress.
// The compositional decompose engine (WithEngine(Decompose),
// WithDecomposeInner) factors the specification into independent components
// — signal groups sharing no place, transition or signal, or the two sides
// of a single dummy articulation transition — synthesizes each projected
// sub-specification concurrently through an inner registered engine, and
// recombines the covers onto the full alphabet; an exact split is sound by
// construction, an articulated one is re-proved by the closed-loop verifier
// (falling back to monolithic synthesis on failure), and an indivisible
// specification falls through to the inner engine with byte-identical output
// and a KindIndivisible informational diagnostic (Result.Decomposition,
// Stats.Decomposed/Components, Components for a synthesis-free preview).
// The content-addressed result cache (Cache, NewLRU, WithCache) keys results
// by Spec.Hash crossed with the canonicalised engine configuration, so
// repeated synthesis of identical specifications — the hot path of a
// high-traffic service and of Batch/Differential sweeps — is a sharded-LRU
// lookup instead of a re-run (hits are marked Stats.Cached).  The cache
// composes into a persistent tier: NewDiskCache is a content-addressed
// on-disk store of EncodeResult documents (atomic write-then-rename,
// checksummed, a corrupt entry degrades to a miss and is evicted), and
// NewTiered stacks an in-memory LRU over it with promotion on hit, so warm
// results survive process restarts and are shared by every process pointed
// at the same directory.  CacheKey and Cached expose the key derivation and
// the hit path to outer layers, and Stats() on each tier reports
// hit/miss/eviction/corruption counters (CacheStats).  The punt/server
// package and the puntd command serve this whole facade over HTTP —
// synthesis-as-a-service with admission control, single-flight deduplication
// of identical concurrent requests, streamed progress and the persistent
// store as its backing cache.
//
// The facade is also governed: WithDeadline and WithMemoryBudget bound every
// synthesis attempt with a watchdog (wall clock and sampled heap growth), and
// exhaustion fails with a KindBudget diagnostic wrapping a *BudgetError that
// carries the attempt's partial progress — matched by the ErrBudget sentinel,
// distinct from ErrLimit (a structural engine bound) and from the caller's
// own cancellation (KindCanceled).  WithFallback installs a degradation
// ladder: on ErrLimit or ErrBudget the request is retried through named
// cheaper configurations (approximate mode, smaller bounds, an alternate
// engine — the paper's own move of substituting a truncated segment for the
// full state space), every rung is recorded in Stats.Attempts (or
// Diagnostic.Attempts on total failure), and a result produced by a fallback
// step is tagged with a KindDegraded informational diagnostic
// (Result.Degradation) and never cached.  Backend panics are recovered at the
// central dispatch on every entry point and surface as KindPanic diagnostics
// wrapping a *PanicError with the captured stack; results produced under an
// expired or budget-tripped context are discarded rather than returned or
// cached.  The internal/faultinject harness drives all of this under seeded
// fault schedules (injected cancellations, panics, slowdowns and cache
// corruption) in the chaos test suite.
//
// Synthesis results do not have to be trusted blindly: Verify closes the loop
// with an event-driven gate-level simulation of the implementation composed
// with the specification's environment, exploring every interleaving under
// arbitrary gate delays and checking output-trace conformance, hazard-freedom
// and liveness.  A violation is a *Diagnostic (KindConformance, KindHazard or
// KindLiveness, all matched by ErrVerification) carrying the offending signal
// and a timed counterexample trace.  Differential cross-checks all synthesis
// engines against the state-graph oracle state by state; together with the
// benchgen.RandomSTG specification generator it backs the repository's
// differential fuzzing harness (go test -fuzz=FuzzDifferential).
//
// The segment builder (internal/unfolding) is the hot path of the system and
// is engineered accordingly: events carry their cut, marking and binary code
// computed incrementally from their preset producers rather than by replaying
// local configurations; causality, concurrency and co-set candidate pruning
// run on word-level bit sets; and cut-off detection uses collision-verified
// 64-bit hash tables instead of string keys.  See the package documentation
// of internal/unfolding for details, and the puntbench module for the
// benchmark whose -record/-compare files keep the perf trajectory.
//
// WithWorkers(n) bounds only jobs that share no state: Batch items,
// portfolio contenders, decompose components and, inside one synthesis, the
// CSC resolver's ranked insertion candidates, which it validates concurrently,
// extending the parent state graph incrementally around the inserted signal
// instead of rebuilding it per candidate (Stats.CSCStatesReused,
// CSCStatesExpanded and CSCFullRebuilds report the reuse).  The unfolding
// segment is always built by one goroutine.  The determinism guarantee is
// explicit and test-enforced: for every specification and every n, the
// unfolding segment, the state-graph trajectory and the synthesized
// implementation are byte-identical to the sequential run — the parallel
// candidate scan picks the same winner as the sequential rank-order scan.
// The worker count is therefore a pure throughput knob:
// changing it can never change a result, which is also why CacheKey
// deliberately excludes it (a result synthesized at one width is served
// verbatim at any other).  Progress callbacks stay serialized on the
// coordinating goroutine under any n.
//
// The repository's cross-cutting invariants — byte-identical deterministic
// output, context discipline on every blocking path, the *Diagnostic error
// taxonomy at the facade boundary, goroutine panic hygiene and cache-key
// purity — are not conventions but checked properties: punt/internal/lint
// implements a project-specific static-analysis suite (five analyzers in the
// shape of golang.org/x/tools/go/analysis, built on the standard library
// alone) and cmd/puntlint is the multichecker CI gates on.  Justified
// exceptions are recorded in the source as //puntlint:ignore directives with
// a mandatory reason; stale or unexplained directives fail the gate.
//
// See README.md for the layout, a quickstart and the CLI overview.
package punt
