package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"punt/internal/boolcover"
	"punt/internal/faultinject"
	"punt/internal/gatelib"
	"punt/internal/stg"
	"punt/internal/unfolding"
)

// Mode selects how covers are derived from the segment.
type Mode int

// Synthesis modes.
const (
	// Approximate derives covers from concurrency information local to the
	// unfolding and refines them only where the on- and off-set covers
	// interfere (Section 4.2/4.3 of the paper).  This is the default.
	Approximate Mode = iota
	// Exact enumerates the states encapsulated by every slice (Section 4.1).
	Exact
)

// String names the mode.
func (m Mode) String() string {
	if m == Exact {
		return "exact"
	}
	return "approximate"
}

// ErrNotSemiModular is returned when the specification violates
// semi-modularity (output persistency) and therefore has no hazard-free
// speed-independent implementation.
var ErrNotSemiModular = errors.New("core: specification is not semi-modular")

// SemiModularityError carries the structural persistency violations found on
// the segment.  It wraps ErrNotSemiModular, so errors.Is keeps working.
type SemiModularityError struct {
	Violations []unfolding.PersistencyViolation
}

func (e *SemiModularityError) Error() string {
	if len(e.Violations) == 1 {
		return fmt.Sprintf("%v: %s", ErrNotSemiModular, e.Violations[0])
	}
	return fmt.Sprintf("%v: %s (and %d more)", ErrNotSemiModular, e.Violations[0], len(e.Violations)-1)
}

func (e *SemiModularityError) Unwrap() error { return ErrNotSemiModular }

// ProgressFunc receives coarse progress notifications during synthesis.
// Stage is "unfold" while the segment is under construction (signal empty,
// events = segment size so far) and "covers" when the covers of a signal are
// about to be derived (signal names it, events = final segment size).
type ProgressFunc func(stage, signal string, events int)

// Options configures the PUNT synthesizer.
type Options struct {
	// Mode selects exact or approximate cover derivation (default
	// Approximate).
	Mode Mode
	// Arch selects the implementation architecture (default ComplexGate, the
	// architecture the paper demonstrates).
	Arch gatelib.Architecture
	// MaxEvents bounds the size of the unfolding segment (0 = default).
	MaxEvents int
	// SkipSemiModularityCheck disables the structural semi-modularity check
	// (useful for benchmarking the synthesis core in isolation).
	SkipSemiModularityCheck bool
	// Progress, when non-nil, receives coarse progress notifications.  It must
	// be cheap and safe to call from the synthesis goroutine.
	Progress ProgressFunc
}

// Stats is the timing breakdown reported for a synthesis run; the field names
// follow the columns of Table 1 of the paper.
type Stats struct {
	// UnfTime is the time taken to construct the STG-unfolding segment
	// ("UnfTim").
	UnfTime time.Duration
	// SynTime is the time taken to derive the on- and off-set covers from the
	// segment, including approximation and refinement ("SynTim").
	SynTime time.Duration
	// EspTime is the time spent in two-level minimisation of the covers
	// ("EspTim").
	EspTime time.Duration
	// Total is the complete wall-clock synthesis time ("TotTim").
	Total time.Duration

	// Segment size statistics.
	Events     int
	Conditions int
	Cutoffs    int

	// TermsRefined counts approximation terms that refinement had to replace
	// by exact covers; 0 means the pure approximation was already correct.
	TermsRefined int
	// SignalsRefined counts signals for which any refinement was necessary.
	SignalsRefined int
}

// String summarises the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("unf=%v syn=%v esp=%v total=%v events=%d cutoffs=%d refined-terms=%d",
		s.UnfTime.Round(time.Microsecond), s.SynTime.Round(time.Microsecond),
		s.EspTime.Round(time.Microsecond), s.Total.Round(time.Microsecond),
		s.Events, s.Cutoffs, s.TermsRefined)
}

// Synthesizer is the unfolding-based synthesis engine (the paper's "PUNT ACG"
// flow).
type Synthesizer struct {
	Options Options
}

// New returns a synthesizer with the given options.
func New(opts Options) *Synthesizer {
	return &Synthesizer{Options: opts}
}

// Synthesize derives a speed-independent implementation for every output and
// internal signal of the STG.  It checks ctx between phases (and, via the
// unfolding builder, inside the segment construction loop) and aborts with
// the context's error when cancelled.
func (s *Synthesizer) Synthesize(ctx context.Context, g *stg.STG) (*gatelib.Implementation, *Stats, error) {
	stats := &Stats{}
	totalStart := time.Now()

	unfStart := time.Now()
	u, err := Unfold(ctx, g, s.Options)
	stats.UnfTime = time.Since(unfStart)
	if err != nil {
		return nil, stats, err
	}
	seg := u.Statistics()
	stats.Events, stats.Conditions, stats.Cutoffs = seg.Events, seg.Conditions, seg.Cutoffs

	if !s.Options.SkipSemiModularityCheck {
		if v := u.CheckSemiModularity(); len(v) > 0 {
			return nil, stats, &SemiModularityError{Violations: v}
		}
	}

	synStart := time.Now()
	d := newDeriver(u, u.Causality())
	stats.SynTime += time.Since(synStart)

	im := &gatelib.Implementation{Name: g.Name(), SignalNames: g.SignalNames()}
	nvars := g.NumSignals()
	for _, sig := range g.OutputSignals() {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if err := faultinject.Check(ctx, faultinject.OpCoreCovers); err != nil {
			return nil, stats, err
		}
		if p := s.Options.Progress; p != nil {
			p("covers", g.Signal(sig).Name, stats.Events)
		}
		synStart := time.Now()
		on, off, erPlus, erMinus, refined, err := s.coversFor(d, sig)
		stats.SynTime += time.Since(synStart)
		if err != nil {
			return nil, stats, err
		}
		if refined > 0 {
			stats.TermsRefined += refined
			stats.SignalsRefined++
		}

		espStart := time.Now()
		gate := s.buildGate(g, sig, on, off, erPlus, erMinus, nvars)
		stats.EspTime += time.Since(espStart)
		im.Gates = append(im.Gates, gate)
	}
	stats.Total = time.Since(totalStart)
	return im, stats, nil
}

// coversFor derives the on/off-set covers (and, for memory-element
// architectures, the excitation-region covers) of one signal.
func (s *Synthesizer) coversFor(d *deriver, sig int) (on, off, erPlus, erMinus *boolcover.Cover, refined int, err error) {
	u, g := d.u, d.u.STG
	nvars := g.NumSignals()

	onSlices, offSlices := d.buildSlices(sig)

	// Signals that never switch are constant: their cover is the constant of
	// their initial value and the opposite set is empty.
	if len(u.EventsOfSignal(sig)) == 0 {
		if g.InitialState().Get(sig) {
			return boolcover.Universe(nvars), boolcover.NewCover(nvars), boolcover.NewCover(nvars), boolcover.NewCover(nvars), 0, nil
		}
		return boolcover.NewCover(nvars), boolcover.Universe(nvars), boolcover.NewCover(nvars), boolcover.NewCover(nvars), 0, nil
	}

	switch s.Options.Mode {
	case Exact:
		on = boolcover.NewCover(nvars)
		for _, sl := range onSlices {
			on.AddAll(exactSliceCover(u, sl))
		}
		off = boolcover.NewCover(nvars)
		for _, sl := range offSlices {
			off.AddAll(exactSliceCover(u, sl))
		}
		if on.Intersects(off) {
			return nil, nil, nil, nil, 0, &CSCError{Signal: g.Signal(sig).Name}
		}
	default:
		sa := d.approximateSignal(sig, onSlices, offSlices)
		rs, rerr := refine(u, sa)
		if rerr != nil {
			return nil, nil, nil, nil, rs.TermsRefined, rerr
		}
		refined = rs.TermsRefined
		on, off = unionTerms(sa.OnTerms, nvars), unionTerms(sa.OffTerms, nvars)
	}

	if s.Options.Arch != gatelib.ComplexGate {
		erPlus = boolcover.NewCover(nvars)
		for _, sl := range onSlices {
			if sl.Entry.IsRoot {
				continue
			}
			erPlus.AddAll(exactExcitationCover(u, sl))
		}
		erMinus = boolcover.NewCover(nvars)
		for _, sl := range offSlices {
			if sl.Entry.IsRoot {
				continue
			}
			erMinus.AddAll(exactExcitationCover(u, sl))
		}
	}
	return on, off, erPlus, erMinus, refined, nil
}

// buildGate minimises the covers and assembles the gate in the selected
// architecture.
func (s *Synthesizer) buildGate(g *stg.STG, sig int, on, off, erPlus, erMinus *boolcover.Cover, nvars int) gatelib.Gate {
	name := g.Signal(sig).Name
	switch s.Options.Arch {
	case gatelib.ComplexGate:
		return gatelib.Gate{
			Signal: name,
			Arch:   gatelib.ComplexGate,
			Cover:  boolcover.MinimizeAgainstOff(on, off),
		}
	default:
		return gatelib.Gate{
			Signal: name,
			Arch:   s.Options.Arch,
			Set:    boolcover.MinimizeAgainstOff(erPlus, off),
			Reset:  boolcover.MinimizeAgainstOff(erMinus, on),
		}
	}
}

// Unfold exposes the segment construction on its own, with the same options
// as the synthesizer; used by callers that only need the segment or its
// verification.
func Unfold(ctx context.Context, g *stg.STG, opts Options) (*unfolding.Unfolding, error) {
	uopts := unfolding.Options{MaxEvents: opts.MaxEvents}
	if p := opts.Progress; p != nil {
		uopts.Progress = func(events int) { p("unfold", "", events) }
	}
	return unfolding.Build(ctx, g, uopts)
}
