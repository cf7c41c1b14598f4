package core

import (
	"fmt"

	"punt/internal/unfolding"
)

// CSCError reports that after complete refinement the on- and off-set covers
// of a signal still intersect: the specification violates Complete State
// Coding and cannot be implemented without changing it.
type CSCError struct {
	Signal string
}

func (e *CSCError) Error() string {
	return fmt.Sprintf("core: signal %q has a Complete State Coding conflict", e.Signal)
}

// refineStats counts the work done by the refinement loop; it is reported by
// the synthesizer for analysis of how often approximation suffices.
type refineStats struct {
	// TermsRefined is the number of approximation terms that had to be
	// replaced by exactly enumerated covers.
	TermsRefined int
}

// refineTerm replaces the approximated single-cube cover of a term by the
// exact cover of the states it stands for: the exact excitation region of the
// slice's entry instance (for ER terms) or the exact marked region of the
// condition restricted to the slice (for MR terms).  This realises the
// paper's refinement — restoring the marking component of the reachable
// states represented by the slice — at the granularity of whole terms, so that
// every refinement step makes one term exact and the loop in refine
// terminates.
func refineTerm(u *unfolding.Unfolding, t *approxTerm) {
	if t.Exact {
		return
	}
	switch {
	case t.Cond != nil:
		t.Cover = exactMRCover(u, t.Slice, t.Cond)
	case t.Slice.Entry.IsRoot:
		t.Cover = exactSliceCover(u, t.Slice)
	default:
		t.Cover = exactExcitationCover(u, t.Slice)
	}
	t.Exact = true
}

// refine repeatedly eliminates interference between the approximated on- and
// off-set covers of a signal.  While some on-term intersects some off-term,
// the term that is still approximate is refined (replaced by its exact
// cover); once both sides of an intersecting pair are exact the intersection
// is a genuine CSC conflict.  The procedure terminates because every step
// makes one term exact and the number of terms is finite.
func refine(u *unfolding.Unfolding, sa *signalApprox) (*refineStats, error) {
	stats := &refineStats{}
	for {
		conflictOn, conflictOff := findInterference(sa)
		if conflictOn == nil {
			return stats, nil
		}
		switch {
		case !conflictOn.Exact:
			refineTerm(u, conflictOn)
			stats.TermsRefined++
		case !conflictOff.Exact:
			refineTerm(u, conflictOff)
			stats.TermsRefined++
		default:
			return stats, &CSCError{Signal: u.STG.Signal(sa.Signal).Name}
		}
	}
}

// findInterference returns an intersecting pair of on/off terms, preferring
// pairs in which at least one side is still approximate so that refinement
// always makes progress before a conflict is declared.
func findInterference(sa *signalApprox) (*approxTerm, *approxTerm) {
	var exactPairOn, exactPairOff *approxTerm
	for _, on := range sa.OnTerms {
		for _, off := range sa.OffTerms {
			if !on.Cover.Intersects(off.Cover) {
				continue
			}
			if !on.Exact || !off.Exact {
				return on, off
			}
			if exactPairOn == nil {
				exactPairOn, exactPairOff = on, off
			}
		}
	}
	return exactPairOn, exactPairOff
}
