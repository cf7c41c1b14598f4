// Command benchtab regenerates the paper's evaluation: Table 1 (the benchmark
// suite synthesised by the unfolding-based flow and both state-graph
// baselines) and the data series behind Figure 6 (synthesis time versus
// signal count on the Muller pipeline, plus the counterflow-pipeline point).
//
// Usage:
//
//	benchtab -table1
//	benchtab -figure6 [-signals 5,8,12,22,32,50]
//	benchtab -table1 -figure6 -quick [-punt-only]
//
// The baselines run within a budget of explicit states and BDD nodes, so a
// run terminates where the paper's tools "choke"; -quick picks smaller
// budgets and a shorter Figure 6 sweep.  -punt-only skips the baselines, and
// their cells read "-".  The repository's perf record is puntbench's
// (-record/-compare), not this command's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"punt/internal/baseline"
	"punt/internal/benchgen"
	"punt/internal/core"
	"punt/internal/gatelib"
	"punt/internal/stg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// budget bounds the two baselines on one specification: states for the
// explicit flow, BDD nodes for the symbolic one.  The zero budget runs
// neither.
type budget struct{ states, nodes int }

// The budgets and sweeps -quick chooses between.  Figure 6 gives the
// baselines less room than Table 1: its deep pipelines are there to choke
// them.
var (
	table1Budget       = budget{states: 2000000, nodes: 4000000}
	table1QuickBudget  = budget{states: 100000, nodes: 500000}
	figure6Budget      = budget{states: 200000, nodes: 2000000}
	figure6QuickBudget = budget{states: 50000, nodes: 500000}
	figure6Sweep       = []int{5, 8, 12, 17, 22, 27, 32, 42, 50}
	figure6QuickSweep  = []int{5, 8, 12, 17, 22}
)

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table1 := fs.Bool("table1", false, "reproduce Table 1")
	figure6 := fs.Bool("figure6", false, "reproduce the Figure 6 scaling series")
	signalsFlag := fs.String("signals", "", "comma-separated pipeline sizes (signal counts, at least 3) for -figure6")
	quick := fs.Bool("quick", false, "use small baseline budgets and a short sweep so the whole run finishes quickly")
	puntOnly := fs.Bool("punt-only", false, "run only the unfolding-based flow (no baselines)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !*table1 && !*figure6 {
		fmt.Fprintln(stderr, "usage: benchtab [-table1] [-figure6] [flags]")
		fs.PrintDefaults()
		return 2
	}
	t1, f6, sweep := table1Budget, figure6Budget, figure6Sweep
	if *quick {
		t1, f6, sweep = table1QuickBudget, figure6QuickBudget, figure6QuickSweep
	}
	if *puntOnly {
		t1, f6 = budget{}, budget{}
	}
	if *signalsFlag != "" {
		sweep = nil
		for _, part := range strings.Split(*signalsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 3 {
				fmt.Fprintf(stderr, "benchtab: bad -signals value %q\n", part)
				return 2
			}
			sweep = append(sweep, v)
		}
	}

	ctx := context.Background()
	if *table1 {
		fmt.Fprintln(stdout, "Table 1: synthesis of the benchmark suite (PUNT ACG vs. state-graph baselines)")
		fmt.Fprintln(stdout, formatTable1(runTable1(ctx, benchgen.Table1Suite(), t1)))
	}
	if *figure6 {
		fmt.Fprintln(stdout, "Figure 6: synthesis time vs. number of signals (Muller pipeline; last row = counterflow pipeline)")
		fmt.Fprintln(stdout, formatFigure6(runFigure6(ctx, sweep, f6)))
	}
	return 0
}

// result is the outcome of one synthesis flow on one specification.  A
// baseline the zero budget skipped has ran false.
type result struct {
	ran, ok  bool
	err      error // why a run that ran did not complete (budget exceeded, ...)
	time     time.Duration
	literals int // valid when ok
}

// measure times one synthesis run.
func measure(synth func() (*gatelib.Implementation, error)) result {
	start := time.Now()
	im, err := synth()
	r := result{ran: true, time: time.Since(start), err: err}
	if err == nil {
		r.ok, r.literals = true, im.Literals()
	}
	return r
}

// runBaselines synthesises a fresh copy of the specification with the
// symbolic (Petrify column) and the explicit (SIS column) state-graph flows.
func runBaselines(ctx context.Context, mk func() *stg.STG, b budget) (petrify, sis result) {
	if b == (budget{}) {
		return petrify, sis
	}
	symbolic := &baseline.SymbolicSynthesizer{MaxNodes: b.nodes, Arch: gatelib.ComplexGate}
	explicit := &baseline.ExplicitSynthesizer{MaxStates: b.states, Arch: gatelib.ComplexGate}
	g := mk()
	petrify = measure(func() (*gatelib.Implementation, error) {
		im, _, err := symbolic.Synthesize(ctx, g)
		return im, err
	})
	h := mk()
	sis = measure(func() (*gatelib.Implementation, error) {
		im, _, err := explicit.Synthesize(ctx, h)
		return im, err
	})
	return petrify, sis
}

// table1Row is one row of the reproduced Table 1: the PUNT ACG columns (the
// segment size, |E| events and |B| conditions, and the phase timings) and the
// two baselines ("Other tools").
type table1Row struct {
	name                 string
	signals              int
	events, conditions   int
	unf, syn, esp, total time.Duration
	literals             int // -1 when PUNT failed
	petrify, sis         result
}

// runTable1 synthesises each entry with the unfolding flow, then with both
// baselines within b.
func runTable1(ctx context.Context, entries []benchgen.BenchmarkEntry, b budget) []table1Row {
	rows := make([]table1Row, 0, len(entries))
	for _, e := range entries {
		row := table1Row{name: e.Name, signals: e.Signals, literals: -1}
		im, stats, err := core.New(core.Options{}).Synthesize(ctx, e.Build())
		row.total = stats.Total
		if err == nil {
			row.events, row.conditions = stats.Events, stats.Conditions
			row.unf, row.syn, row.esp = stats.UnfTime, stats.SynTime, stats.EspTime
			row.literals = im.Literals()
		}
		row.petrify, row.sis = runBaselines(ctx, e.Build, b)
		rows = append(rows, row)
	}
	return rows
}

// figure6Point is one measurement of the Figure 6 series.
type figure6Point struct {
	signals            int
	punt, petrify, sis result
}

// runFigure6 measures the Muller pipeline at each signal count, then the
// 34-signal counterflow pipeline (the circled dot of Figure 6).
func runFigure6(ctx context.Context, signals []int, b budget) []figure6Point {
	measurePoint := func(n int, mk func() *stg.STG) figure6Point {
		p := figure6Point{signals: n}
		g := mk()
		p.punt = measure(func() (*gatelib.Implementation, error) {
			im, _, err := core.New(core.Options{}).Synthesize(ctx, g)
			return im, err
		})
		p.petrify, p.sis = runBaselines(ctx, mk, b)
		return p
	}
	points := make([]figure6Point, 0, len(signals)+1)
	for _, n := range signals {
		points = append(points, measurePoint(n, func() *stg.STG { return benchgen.MullerPipelineWithSignals(n) }))
	}
	cf := benchgen.CounterflowPipeline
	return append(points, measurePoint(cf().NumSignals(), cf))
}

// formatTable1 renders the rows in the layout of the paper's Table 1.
func formatTable1(rows []table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %5s %7s %7s | %9s %9s %9s %9s %7s | %12s %12s %9s\n",
		"Benchmark", "Sigs", "Events", "Conds", "UnfTim", "SynTim", "EspTim", "TotTim", "LitCnt", "Petrify", "SIS", "LitCnt")
	rule := strings.Repeat("-", 140) + "\n"
	sb.WriteString(rule)
	tot := table1Row{name: "Total"}
	for _, r := range rows {
		writeTable1Row(&sb, r)
		tot.signals += r.signals
		tot.events += r.events
		tot.conditions += r.conditions
		tot.unf += r.unf
		tot.syn += r.syn
		tot.esp += r.esp
		tot.total += r.total
		tot.literals += max(r.literals, 0)
		addTotal(&tot.petrify, r.petrify)
		addTotal(&tot.sis, r.sis)
	}
	sb.WriteString(rule)
	writeTable1Row(&sb, tot)
	return sb.String()
}

func writeTable1Row(sb *strings.Builder, r table1Row) {
	fmt.Fprintf(sb, "%-22s %5d %7d %7d | %9s %9s %9s %9s %7d | %12s %12s %4s/%-4s\n",
		r.name, r.signals, r.events, r.conditions,
		fmtDur(r.unf), fmtDur(r.syn), fmtDur(r.esp), fmtDur(r.total), r.literals,
		fmtTool(r.petrify), fmtTool(r.sis), fmtLit(r.petrify), fmtLit(r.sis))
}

// addTotal adds one row's baseline result to the Total row's: the time of
// every run, aborted or not, and the literals of the completed ones.
func addTotal(tot *result, r result) {
	if !r.ran {
		return
	}
	tot.ran, tot.ok = true, true
	tot.time += r.time
	if r.ok {
		tot.literals += r.literals
	}
}

// formatFigure6 renders the scaling series as the table underlying Figure 6.
func formatFigure6(points []figure6Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s | %14s | %14s | %14s\n", "Signals", "PUNT", "Petrify", "SIS")
	sb.WriteString(strings.Repeat("-", 62) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%8d | %14s | %14s | %14s\n",
			p.signals, fmtTool(p.punt), fmtTool(p.petrify), fmtTool(p.sis))
	}
	sb.WriteString("(* = aborted after exceeding its state/node budget: the tool \"chokes\" at this size)\n")
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtTool renders a time cell: "-" for a flow that did not run, ">t*" for one
// aborted after t.
func fmtTool(r result) string {
	switch {
	case !r.ran:
		return "-"
	case !r.ok:
		return ">" + fmtDur(r.time) + "*"
	}
	return fmtDur(r.time)
}

func fmtLit(r result) string {
	if !r.ok {
		return "-"
	}
	return strconv.Itoa(r.literals)
}
