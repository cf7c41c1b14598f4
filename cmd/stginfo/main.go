// Command stginfo analyses an STG specification: it reports structural
// properties of the underlying net, how the compositional decompose engine
// would partition it into components, builds the state graph and checks the
// correctness criteria required for speed-independent synthesis (consistency,
// safeness, output persistency, USC/CSC), and summarises the size of the
// STG-unfolding segment for comparison.  Complete State Coding conflicts are
// reported in detail: the conflicting state pair with its shared code, the
// output signals whose excitation disagrees, and a shortest witness firing
// sequence to each of the two states.
//
// With -dump it prints the STG-unfolding segment itself instead of the
// report: every event with its binary code, preset, postset and cut-off
// status, mirroring the figures of the paper.  A segment that cannot be
// built (an unsafe net, an inconsistent state assignment, more than
// -max-events events) exits with status 1.
//
// Usage:
//
//	stginfo [-max-states N] [-max-conflicts N] [-max-events N] [-dump] file.g
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"punt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stginfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxStates := fs.Int("max-states", 1000000, "abort state graph construction beyond this many states")
	maxConflicts := fs.Int("max-conflicts", 8, "print at most this many CSC conflicts in detail")
	maxEvents := fs.Int("max-events", 0, "abort if the unfolding segment exceeds this many events (0 = default)")
	dump := fs.Bool("dump", false, "print the unfolding segment instead of the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: stginfo [flags] file.g")
		fs.PrintDefaults()
		return 2
	}
	spec, err := punt.LoadFileFrom(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "stginfo:", err)
		return 1
	}
	ctx := context.Background()
	if *dump {
		seg, err := punt.Unfold(ctx, spec, punt.WithMaxEvents(*maxEvents))
		if err != nil {
			fmt.Fprintln(stderr, "stginfo:", err)
			return 1
		}
		out := &errWriter{w: stdout}
		fmt.Fprint(out, seg.Dump())
		return finish(out, stderr)
	}
	// The report on stdout is the product of the run: latch the first write
	// failure so a closed pipe or full disk fails the command instead of
	// truncating the analysis silently under exit 0.
	out := &errWriter{w: stdout}
	fmt.Fprint(out, spec.Describe())
	fmt.Fprintf(out, "marked graph: %v, free choice: %v\n", spec.IsMarkedGraph(), spec.IsFreeChoice())

	// The decomposition report: how the compositional engine would partition
	// this specification, or that it is indivisible and synthesis would fall
	// through to the monolithic inner engine.
	if comps := punt.Components(spec); len(comps) > 1 {
		how := "independent"
		if comps[0].Articulated {
			how = "articulated"
		}
		fmt.Fprintf(out, "decomposition: %d %s components\n", len(comps), how)
		for _, c := range comps {
			fmt.Fprintf(out, "  %s: %d signals (%d outputs): %s\n",
				c.Name, len(c.Signals), c.Outputs, strings.Join(c.Signals, " "))
		}
	} else {
		fmt.Fprintln(out, "decomposition: indivisible")
	}

	seg, err := punt.Unfold(ctx, spec, punt.WithMaxEvents(*maxEvents))
	if err != nil {
		fmt.Fprintf(out, "unfolding: failed: %v\n", err)
	} else {
		fmt.Fprintf(out, "unfolding segment: %s\n", seg.Stats())
		if v := seg.SemiModularityViolations(); len(v) > 0 {
			fmt.Fprintf(out, "unfolding semi-modularity: %d potential violations (first: %s)\n", len(v), v[0])
		} else {
			fmt.Fprintln(out, "unfolding semi-modularity: ok")
		}
	}

	sg, err := punt.BuildStateGraph(ctx, spec, punt.WithMaxStates(*maxStates))
	if err != nil {
		fmt.Fprintf(out, "state graph: failed: %v\n", err)
		return finish(out, stderr)
	}
	fmt.Fprint(out, sg.Report())

	// Per-conflict detail from the structured API: the conflicting state
	// pair with its shared code, the output signals that disagree, and a
	// shortest witness trace to each state.
	conflicts := sg.CSCConflicts()
	for i, c := range conflicts {
		if i >= *maxConflicts {
			fmt.Fprintf(out, "  … %d more conflicts (raise -max-conflicts)\n", len(conflicts)-i)
			break
		}
		fmt.Fprintf(out, "  conflict %d: code %s: state %d {%s} vs state %d {%s}, differing on %s\n",
			i+1, c.Code, c.StateA, c.SignalsA, c.StateB, c.SignalsB, strings.Join(c.DiffSignals, ","))
		fmt.Fprintf(out, "    witness to state %d: %s\n", c.StateA, renderTrace(c.TraceA))
		fmt.Fprintf(out, "    witness to state %d: %s\n", c.StateB, renderTrace(c.TraceB))
	}
	return finish(out, stderr)
}

// An errWriter latches the first write error; later writes become no-ops so
// one failure is reported once, at the end of the run.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// finish converts a latched output failure into the exit code.
func finish(out *errWriter, stderr io.Writer) int {
	if out.err != nil {
		fmt.Fprintln(stderr, "stginfo: writing output:", out.err)
		return 1
	}
	return 0
}

// renderTrace joins a witness firing sequence, naming the empty trace (the
// initial state itself) explicitly.
func renderTrace(trace []string) string {
	if len(trace) == 0 {
		return "(initial state)"
	}
	return strings.Join(trace, " ")
}
