package punt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"punt/gates"
	"punt/internal/decompose"
	"punt/internal/verify"
)

// decomposeBackend is the compositional synthesis flow behind the Backend
// interface: factor the specification into independent components, synthesize
// each through the inner engine concurrently, and recombine the covers.
//
// Two factorings are tried in order of soundness.  decompose.Split is exact —
// components share no place, transition or signal, so every component error
// is a genuine error of the whole specification (a CSC conflict inside a
// component is a CSC conflict of the full spec) and propagates directly, and
// the recombined circuit is correct by construction.  When Split finds
// nothing, decompose.Articulate looks for a dummy articulation transition;
// its projections over-approximate each side's environment, so the merged
// circuit is re-proved closed-loop against the full specification, and any
// failure along that path — a component synthesis, the recombination, the
// final verification — abandons articulation and falls back to the
// monolithic inner engine rather than failing the call.
//
// An indivisible specification delegates to the inner engine with zero
// overhead (one linear scan to discover the indivisibility) and records the
// fallthrough as a KindIndivisible informational in Result.Decomposition; the
// output is byte-identical to running the inner engine directly.
type decomposeBackend struct{}

func (decomposeBackend) Name() string { return Decompose }

func (d decomposeBackend) Synthesize(ctx context.Context, spec *Spec, cfg BackendConfig) (*Result, error) {
	innerName := cfg.Inner
	if innerName == "" {
		innerName = Unfolding
	}
	if innerName == Decompose || innerName == Portfolio {
		return nil, diagnose("synthesize", spec.Name(),
			fmt.Errorf("decompose cannot use %q as its inner engine", innerName))
	}
	inner, err := lookupBackend(innerName)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	if plan := decompose.Split(spec.g); plan.Divisible() {
		// The sound factoring: component outcomes, success or failure, are
		// the whole specification's outcomes.
		return synthesizeComponents(ctx, spec, plan, inner, cfg, start)
	}
	if plan := decompose.Articulate(spec.g); plan != nil {
		// The optimistic factoring: fall back to monolithic synthesis on any
		// failure — unless the caller's context expired, in which case the
		// failure is the caller's and a fallback would just burn more budget.
		res, cerr := synthesizeComponents(ctx, spec, plan, inner, cfg, start)
		if cerr == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, cerr
		}
	}

	// Indivisible: delegate unchanged.  runBackend stamps the inner engine's
	// own stats; the dispatcher above re-stamps Stats.Backend = "decompose"
	// (the backend the caller selected), and the fallthrough is recorded as
	// an informational diagnostic, never an error.
	res, err := runBackend(ctx, inner, spec, cfg)
	if err != nil {
		return nil, err
	}
	res.Decomposition = &Diagnostic{
		Op:     "synthesize",
		Spec:   spec.Name(),
		Kind:   KindIndivisible,
		Signal: innerName,
	}
	return res, nil
}

// synthesizeComponents drives one decomposition plan end to end: wrap each
// projected sub-STG as a Spec, synthesize all of them through the inner
// backend under shared cancellation (at most cfg.Workers at once), and
// recombine the per-component covers onto the full signal alphabet.  An
// articulated plan's merged circuit is additionally proved conformant,
// hazard-free and live against the FULL specification with the closed-loop
// verifier — that check is what makes the optimistic over-approximating
// projection safe.  An exact Split needs no such insurance: the components
// share no place, transition or signal, so the product of per-component
// correct circuits is correct by construction, and re-verifying would cost
// more than the decomposition saves (the whole point of factoring is never
// touching the full state space).
func synthesizeComponents(ctx context.Context, spec *Spec, plan *decompose.Plan, inner Backend, cfg BackendConfig, start time.Time) (*Result, error) {
	comps := plan.Components
	subSpecs := make([]*Spec, len(comps))
	for i := range comps {
		sp, err := wrapSpec(ctx, comps[i].Sub)
		if err != nil {
			return nil, err
		}
		subSpecs[i] = sp
	}

	// cctx aborts the siblings the moment one component fails.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := cfg.Workers
	if workers <= 0 || workers > len(comps) {
		workers = len(comps)
	}
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, workers)
		results = make([]*Result, len(comps))
		errs    = make([]error, len(comps))
		elapsed = make([]time.Duration, len(comps))
	)
	for i := range comps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// runBackend recovers backend panics centrally; this is the
				// component goroutine's last line of defence, so a panic in
				// the bookkeeping itself can never kill the process.
				if p := recover(); p != nil {
					errs[i] = diagnose("synthesize", subSpecs[i].Name(),
						fmt.Errorf("decompose component %q panicked: %v", subSpecs[i].Name(), p))
					cancel()
				}
			}()
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				errs[i] = diagnose("synthesize", subSpecs[i].Name(), context.Cause(cctx))
				return
			}
			defer func() { <-sem }()
			t0 := time.Now()
			res, err := runBackend(cctx, inner, subSpecs[i], cfg)
			elapsed[i] = time.Since(t0)
			results[i], errs[i] = res, err
			if err != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()

	// Errors surface in component order, so the reported diagnostic is
	// deterministic regardless of which component actually lost the race to
	// cancel its siblings.  Cancellation diagnostics are only a symptom of a
	// sibling's failure; prefer a real error when one exists.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		var diag *Diagnostic
		if errors.As(err, &diag) && diag.Kind != KindCanceled {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	merged, err := recombineResults(spec, plan, results)
	if err != nil {
		return nil, diagnose("synthesize", spec.Name(), err)
	}

	// The articulation shortcut is only trusted once the recombined circuit
	// provably implements the full specification.
	if comps[0].Articulated {
		vstart := time.Now()
		if _, verr := verify.Verify(ctx, spec.g, merged.Impl, verify.Options{MaxStates: cfg.MaxStates}); verr != nil {
			return nil, diagnose("synthesize", spec.Name(), verr)
		}
		merged.Stats.EspTime += time.Since(vstart)
	}
	merged.Stats.Total = time.Since(start)

	for i := range comps {
		merged.Stats.Components[i].Elapsed = elapsed[i]
	}
	return merged, nil
}

// recombineResults merges the per-component Results into one: the covers are
// widened onto the full signal alphabet by decompose.Recombine and the
// component stats are summed into the Table-1 columns (Total is stamped by
// the caller with the true wall-clock, since components ran concurrently).
func recombineResults(spec *Spec, plan *decompose.Plan, results []*Result) (*Result, error) {
	comps := plan.Components
	impls := make([]*gates.Implementation, len(results))
	for i, r := range results {
		impls[i] = r.Impl
	}
	mergedImpl, err := decompose.Recombine(spec.g, plan, impls)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Impl: mergedImpl}
	st := &res.Stats
	st.Engine = Decompose
	st.Decomposed = true
	st.Components = make([]ComponentStat, len(comps))
	for i, r := range results {
		st.UnfTime += r.Stats.UnfTime
		st.SynTime += r.Stats.SynTime
		st.EspTime += r.Stats.EspTime
		st.Events += r.Stats.Events
		st.Conditions += r.Stats.Conditions
		st.Cutoffs += r.Stats.Cutoffs
		st.States += r.Stats.States
		st.TermsRefined += r.Stats.TermsRefined
		st.SignalsRefined += r.Stats.SignalsRefined
		st.Components[i] = ComponentStat{
			Name:        comps[i].Sub.Name(),
			Backend:     r.Stats.Backend,
			Signals:     len(comps[i].Signals),
			Outputs:     comps[i].Outputs,
			Articulated: comps[i].Articulated,
			Events:      r.Stats.Events,
			States:      r.Stats.States,
			Literals:    r.Impl.Literals(),
		}
	}
	return res, nil
}

// Components reports how the decompose backend would factor spec: one entry
// per component of the plan it would synthesize, or a single entry covering
// every signal when the specification is indivisible.  The stginfo CLI
// renders this as its component report.
func Components(spec *Spec) []ComponentInfo {
	plan := decompose.Split(spec.g)
	if !plan.Divisible() {
		if art := decompose.Articulate(spec.g); art != nil {
			plan = art
		}
	}
	out := make([]ComponentInfo, len(plan.Components))
	for i, c := range plan.Components {
		info := ComponentInfo{
			Name:        c.Sub.Name(),
			Outputs:     c.Outputs,
			Articulated: c.Articulated,
			Signals:     make([]string, len(c.Signals)),
		}
		for j, s := range c.Signals {
			info.Signals[j] = spec.g.Signal(s).Name
		}
		out[i] = info
	}
	return out
}

// ComponentInfo describes one component of a decomposition plan; see
// Components.
type ComponentInfo struct {
	// Name is the projected sub-specification's name (the full
	// specification's own name when indivisible).
	Name string `json:"name"`
	// Signals lists the component's signal names in global order.
	Signals []string `json:"signals"`
	// Outputs counts the output and internal signals among them.
	Outputs int `json:"outputs"`
	// Articulated marks components split at an articulation transition.
	Articulated bool `json:"articulated,omitempty"`
}
