// Command puntbench is the repository benchmark: four workloads that
// together cover every layer of punt, each run from a seed, each output
// checked, every metric printed by name with its unit.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash puntbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//	bash puntbench/run.sh -record FILE [-seed N] [-seconds S] [-workload NAME]
//	bash puntbench/run.sh -compare [-bounds BENCHMARK.json] A.json B.json
//
// A run sets the workload up once untimed, then times set-ups, each after
// a collection, for at least a second in at least three samples of at
// least 20 ms each (one timed set-up is too noisy to gate on; the median
// sample is reported).  It runs an untimed warm-up block a tenth of S
// long, then measures S seconds of op time in five blocks, each holding
// whole rounds of the workload's inputs.  The last line of standard output is
// one JSON object: correct, attempted, failed and the metrics.  A failed
// op or output check makes correct false and the exit status 1.  With
// --trace 1 the S seconds are six blocks, alternately untraced and
// traced; the spans of the traced blocks give the per-layer metrics, and
// the difference between the two kinds of block is the tracing overhead.
// End-to-end numbers come only from untraced runs.
//
// -record makes five untraced runs of each workload, one process per run
// with seeds N, N+1, ..., going round the workloads in turn, and writes
// the runs with their medians and quartiles and the environment (Go
// version, GOMAXPROCS, CPU count, commit, time); it writes nothing when a
// run fails.  -compare prints, for every workload and end-to-end metric of
// two such files, each side's median and quartiles, the change and a
// verdict against the metric's bound in BENCHMARK.json: better, worse,
// within, or unresolved when the run-to-run spread exceeds the bound; and
// a failed row for every run that failed an op or check.  It exits 1 when
// any verdict is worse or any run failed.
//
// # Workloads
//
// controllers: closed loop, one client.  Each round is the 21 Table 1
// specs followed by the next 200 of a pool of 2000 RandomSTG controllers
// of 4 to 12 signals drawn from a seed-derived range.  Op: Parse, then
// Synthesize with WithResolveCSC(4), then Eqn.  This is punt -resolve-csc
// traffic on real-sized controllers: time goes to parsing, covers and
// espresso, and to CSC repair and re-verification on about 4% of the
// random specs.  Unfolding is about 5% of it, so an unfolding change should
// show no change here.  Repeats of an input must give the same equations,
// and after the run every distinct input is synthesized again, must give
// those equations, and must pass Verify.
//
// fig6: closed loop, one client, rounds of pipeline-22, pipeline-34,
// pipeline-50 and counterflow.  Op: Parse, Synthesize with the default
// engine, Eqn.  The paper's Figure 6 series: cover derivation is about 90%
// of the time and allocation runs to tens of MB per op, so the GC matters.
// Equations must match the golden hashes in golden.json; counterflow's
// result passes Verify after the run.
//
// segments: closed loop, one client, the same four specs parsed during
// set-up.  Op: Unfold with WithWorkers(GOMAXPROCS).  Segment construction
// alone, the first stage of every synthesis and what stginfo and unfdump
// do; the only traffic through the sharded possible-extension pool.  Every
// segment's Dump hash must match a single-worker reference built during
// set-up.
//
// puntd: closed loop, one client over keep-alive connections to an
// in-process server on httptest, cached by NewTiered(NewLRU(64),
// NewDiskCache(dir)).  Each round is 80 requests in seeded order: 60 warm
// ones, Zipf(s=1.1) over 256 specs (Table 1 first, then random ones)
// prefilled during set-up, four times what the in-memory tier holds, so
// hits come from both tiers; and 20 novel random specs, one of which is
// sent twice at once to meet the single-flight path.  Every request asks
// for resolve_csc.  Op: encode the request, POST it, decode the result,
// Eqn.  Every 200 body must decode, repeats of an input must give the same
// equations, and after the run every served input's equations must match a
// library synthesis of the same spec.  The loop is closed, as for a client
// such as punt -server that waits for each reply.  An open loop, Poisson
// arrivals at 200 requests/s over two connections, was too noisy to gate on
// with two vCPUs: over seven runs, the 90th percentile of warm requests that
// overlapped another request ranged from 3.5 to 6.1 ms, that of warm
// requests served alone from 2.3 to 2.7 ms, and the workload's
// latency_p90_ms spread by 12% over ten runs on a quiet machine and by up to
// 29% on a busy one.
//
// # End-to-end metrics
//
//	setup_s             s      median of the set-ups
//	ops_per_s           ops/s  ops per second of op time, median over blocks
//	latency_p50_ms      ms     median op latency over all ops, each op counted at its input's median
//	latency_p90_ms      ms     90th percentile op latency over all ops
//	latency_geomean_ms  ms     geometric mean of per-input medians over the seed-independent inputs
//	                           (Table 1 for controllers and puntd, all four specs for fig6 and segments)
//	cpu_ms_per_op       ms     process user+system CPU per op, median over blocks
//	alloc_mb_per_op     MB     heap allocation per op, median over blocks
//
// BENCHMARK.json lets a change worsen alloc_mb_per_op by 3% and every other
// metric by 25%, the most it allows.  On a 2-vCPU Xeon VM shared with other
// tenants, two sets of ten 20-second runs per workload, each workload's ten
// runs back to back, spread (Q3-Q1)/median as follows: alloc_mb_per_op at
// most 1%; the timings of controllers, segments and puntd 2-12%; those of
// fig6 7-11% in one set and 21-24% in the other, where the machine's speed
// sat at one of two levels for minutes at a time and CPU time per op moved
// with it; setup_s 8-23%.
//
// # Per-layer metrics
//
// See layerMap (printed by -h) for which end-to-end metric each layer
// should move, on which workload, and where it should not.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

var workloads = []workload{
	{
		name:  "controllers",
		why:   "resolve-csc synthesis of Table 1 and random controllers: parse, covers, espresso and CSC repair; unfolding is ~5%, so unfolding changes must not move it",
		loop:  "closed, 1 client, rounds of Table 1 + 200 random specs",
		setup: setupControllers,
	},
	{
		name:  "fig6",
		why:   "the paper's Figure 6 pipelines: cover derivation is ~90% of the time and allocation is heavy, so core and GC changes show here",
		loop:  "closed, 1 client, rounds of the four Figure 6 specs",
		setup: setupFig6,
	},
	{
		name:  "segments",
		why:   "unfolding segment construction alone with GOMAXPROCS workers: the only traffic through the sharded possible-extension pool",
		loop:  "closed, 1 client, rounds of the four Figure 6 specs",
		setup: setupSegments,
	},
	{
		name:  "puntd",
		why:   "daemon traffic over HTTP: Zipf warm hits from both cache tiers plus 25% novel specs, so codec, HTTP, cache and single-flight paths dominate",
		loop:  "closed, 1 client, rounds of 60 Zipf warm + 20 novel requests",
		setup: setupPuntd,
	},
}

// endToEndMetrics are the metrics of an untraced run, in report order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_geomean_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// layerMap says which end-to-end metric each layer's metrics should move,
// on which workload, and where they should not.
const layerMap = `layer      metrics                          moves                                 should not move
spec       spec.parse_share                 latency_p50_ms @ controllers          fig6
unfolding  unfolding.*                      ops_per_s, latency_geomean_ms,        controllers
                                            cpu_ms_per_op @ segments; fig6 by
                                            at most its ~7% share
core       core.*                           latency_geomean_ms, ops_per_s @ fig6  segments
boolcover  boolcover.share                  latency_geomean_ms @ controllers      segments; fig6 (<=3%)
facade     facade.share                     latency_p50_ms @ controllers          segments
resolve    resolve.*                        latency_p90_ms @ controllers, puntd   fig6, segments
verify     verify.checked, verify.failed    correct and failed, everywhere        -
gates      gates.eqn_share, gates.literals  latency_p50_ms @ controllers          segments
cache      cache.*                          latency_p50_ms @ puntd                the other workloads
json       json.*                           latency_p50_ms @ puntd                the other workloads
server     server.*                         latency_p90_ms @ puntd                the other workloads
runtime    runtime.*                        latency_geomean_ms @ fig6             -
trace      trace.*                          the cost of tracing itself            -`

// An untraced run takes at least setupMin set-up samples and goes on until
// setupBudget of set-up time has passed.  A sample repeats the set-up until
// it holds setupSample of set-up time and reports the mean: this machine's
// speed flips between two levels on a millisecond scale, and the median of
// millisecond set-ups would land on either level by chance.
const (
	setupMin    = 3
	setupBudget = time.Second
	setupSample = 20 * time.Millisecond
)

// runTimeout stops a run whose ops hang, well inside the three minutes a
// run may take.
const runTimeout = 150 * time.Second

//go:embed golden.json
var goldenJSON []byte

func main() {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(os.Stderr, "puntbench: reading golden.json: %v\n", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], golden, os.Stdout, os.Stderr))
}

// run is the command, checking fig6 against the golden equation hashes;
// it returns the exit status.
func run(args []string, golden map[string]string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("puntbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (record: only this one; default all)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (record: of the first run)")
	seconds := fs.Float64("seconds", 20, "measured seconds per run, after a warm-up a tenth as long")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead instead of end-to-end metrics")
	spans := fs.String("spans", "", "traced run: also write the spans as JSON to this file")
	record := fs.String("record", "", fmt.Sprintf("run each workload %d times, untraced, and write the run set to this file", runsPerSet))
	compare := fs.Bool("compare", false, "compare two recorded run sets given as arguments")
	bounds := fs.String("bounds", "BENCHMARK.json", "compare: the file holding the metric bounds")
	fs.Usage = func() { printUsage(fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "puntbench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) || *seconds > 600 {
		fmt.Fprintln(stderr, "puntbench: -seconds must be in (0, 600]")
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "puntbench: -compare needs two run-set files")
			return 2
		}
		return compareRunSets(fs.Arg(0), fs.Arg(1), *bounds, stdout, stderr)
	case *record != "":
		if *trace == 1 {
			fmt.Fprintln(stderr, "puntbench: -record records untraced runs only")
			return 2
		}
		return recordRuns(*record, *name, *seed, *seconds, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "puntbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, golden: golden}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printUsage(fs *flag.FlagSet) {
	out := fs.Output()
	fmt.Fprintln(out, "usage: puntbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]")
	fmt.Fprintln(out, "       puntbench -record FILE [-seed N] [-seconds S] [-workload NAME]")
	fmt.Fprintln(out, "       puntbench -compare [-bounds BENCHMARK.json] A.json B.json")
	fmt.Fprintln(out, "\nworkloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-12s %s\n  %-12s why: %s\n", w.name, w.loop, "", w.why)
	}
	fmt.Fprintln(out, "\nend-to-end metrics (--trace 0):")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(out, "  %-20s %s\n", m.name, m.unit)
	}
	fmt.Fprintln(out, "\nper-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-27s %s\n", m.name, m.unit)
	}
	fmt.Fprintln(out, "\nlayer -> metric map:")
	fmt.Fprintln(out, layerMap)
	fmt.Fprintln(out, "\nflags:")
	fs.PrintDefaults()
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
	golden  map[string]string
}

// runWorkload sets the workload up, measures it and reduces the
// measurements to the run's result, printing a short summary to out.
func runWorkload(w workload, cfg runConfig, out io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	p := newPlan(cfg.seconds, tr)
	scfg := setupConfig{seed: cfg.seed, span: p.warmup + time.Duration(p.blocks)*p.block, golden: cfg.golden}
	inst, err := w.setup(ctx, scfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// The first set-up is untimed: it pays for the process's cold start.
	// Each timed one starts after a collection with the previous instance
	// gone, so every set-up meets the same heap.  A traced run reports no
	// set-up time.
	var setups []float64
	var spent time.Duration
	for !cfg.trace && (len(setups) < setupMin || spent < setupBudget) {
		var took time.Duration
		n := 0
		for took < setupSample {
			inst.close()
			inst = nil
			runtime.GC()
			start := time.Now()
			inst, err = w.setup(ctx, scfg)
			took += time.Since(start)
			n++
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		spent += took
		setups = append(setups, took.Seconds()/float64(n))
	}
	runtime.GC()
	d, err := inst.measure(ctx, p)
	inst.close()
	if err != nil {
		return nil, err
	}

	res := &result{Correct: d.failed == 0, Attempted: d.attempted, Failed: d.failed}
	if cfg.trace {
		tr.mu.Lock()
		spans := tr.spans
		tr.mu.Unlock()
		if err := checkTree(spans); err != nil {
			return nil, fmt.Errorf("malformed span tree: %w", err)
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, spans); err != nil {
				return nil, err
			}
		}
		res.Metrics = layerMetrics(d, spans)
	} else {
		res.Metrics = endToEnd(d, time.Duration(median(setups)*float64(time.Second)))
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s could not be measured", k)
		}
	}
	fmt.Fprintf(out, "%s seed=%d: %d ops attempted, %d failed, %d checks (%d failed); %d measured ops in %d blocks, %d of them untraced\n",
		w.name, cfg.seed, d.attempted, d.failed, d.checked, d.checkFail, len(d.samples), len(d.blocks), len(latencies(d)))
	if cfg.trace {
		fmt.Fprintf(out, "traced ops are %+.1f%% slower than untraced ones; span self times split the traced op time into the *share metrics\n",
			100*res.Metrics["trace.overhead_frac"].Value)
	}
	return res, nil
}
