package experiments

import (
	"fmt"
	"strings"
	"time"
)

// ResolveRetryPoint aggregates one CSC-resolution retry sweep: the same
// conflicted specifications resolved once with full state-graph rebuilds per
// candidate and once with incremental extension.  The measurement itself
// lives in punt/bench.
type ResolveRetryPoint struct {
	// Seeds is how many conflicted random specifications the sweep resolved.
	Seeds int
	// FullRebuild and Incremental are the total resolution times of the two
	// validation modes over the whole sweep.
	FullRebuild time.Duration
	Incremental time.Duration
	// Speedup is FullRebuild/Incremental.
	Speedup float64
	// IncrementalBuilds and FullRebuilds count candidate validations by kind
	// in the incremental run; StatesReused is the total parent states copied
	// instead of re-explored.
	IncrementalBuilds int
	FullRebuilds      int
	StatesReused      int
}

// FormatResolveRetry renders the retry-sweep measurement as a table.
func FormatResolveRetry(points []ResolveRetryPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s | %10s %10s %8s | %6s %6s %8s\n",
		"Seeds", "Full", "Incr", "Speedup", "IncB", "FullB", "Reused")
	sb.WriteString(strings.Repeat("-", 66) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%5d | %10v %10v %7.2fx | %6d %6d %8d\n",
			p.Seeds, p.FullRebuild.Round(time.Millisecond), p.Incremental.Round(time.Millisecond),
			p.Speedup, p.IncrementalBuilds, p.FullRebuilds, p.StatesReused)
	}
	return sb.String()
}
