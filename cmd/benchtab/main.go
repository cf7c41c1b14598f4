// Command benchtab regenerates the paper's evaluation: Table 1 (the benchmark
// suite synthesised by the unfolding-based flow and both state-graph
// baselines) and the data series behind Figure 6 (synthesis time versus
// signal count on the Muller pipeline, plus the counterflow-pipeline point).
//
// Usage:
//
//	benchtab -table1
//	benchtab -figure6 [-signals 5,8,12,22,32,50]
//	benchtab -facade
//	benchtab -cache
//	benchtab -disk [-store DIR]
//	benchtab -decompose
//	benchtab -table1 -figure6 -quick
//	benchtab -table1 -figure6 -json results.json
//
// With -json the measurements are additionally written as an indented JSON
// report ("-" = stdout), giving successive runs a machine-readable perf
// trajectory to diff against; the report then always includes the end-to-end
// facade benchmark (parse → synthesize through the public punt API) and the
// cache-effectiveness benchmark (cold synthesis vs warm content-addressed
// hit), so the trajectory tracks public-API overhead and cache behaviour
// next to the raw cores.
//
// With -disk the persistent result store behind puntd is measured: cold
// synthesis through a tiered in-memory-LRU-over-disk cache against warm hits
// served through fresh tiers on the same directory, i.e. the cost of a warm
// request after a daemon restart.  -store names the store directory (default:
// a temporary directory removed afterwards); point it at an existing puntd
// store to price hits against real contents.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"punt/bench"
)

func main() {
	table1 := flag.Bool("table1", false, "reproduce Table 1")
	figure6 := flag.Bool("figure6", false, "reproduce the Figure 6 scaling series")
	facade := flag.Bool("facade", false, "measure the end-to-end public-API pipeline (implied by -json)")
	cacheBench := flag.Bool("cache", false, "measure cold-vs-warm result-cache effectiveness (implied by -json)")
	diskBench := flag.Bool("disk", false, "measure cold-vs-warm hits on the persistent disk store (implied by -json)")
	storeDir := flag.String("store", "", "disk store directory for -disk (default: a temporary directory)")
	retryBench := flag.Bool("resolve-retry", false, "measure full-rebuild vs incremental CSC-resolution retries (implied by -json)")
	decomposeBench := flag.Bool("decompose", false, "measure monolithic vs compositional (split-synthesize-recombine) synthesis (implied by -json)")
	retryConflicts := flag.Int("retry-conflicts", 25, "how many CSC-conflicted random specs the -resolve-retry sweep resolves")
	quick := flag.Bool("quick", false, "use small resource budgets so the whole run finishes quickly")
	skipBaselines := flag.Bool("punt-only", false, "run only the unfolding-based flow (no baselines)")
	signalsFlag := flag.String("signals", "", "comma-separated pipeline sizes (signal counts) for -figure6")
	facadeRuns := flag.Int("facade-runs", 5, "how many runs the facade and cache benchmarks average over")
	jsonOut := flag.String("json", "", `also write the measurements as JSON to this file ("-" = stdout)`)
	flag.Parse()
	if !*table1 && !*figure6 && !*facade && !*cacheBench && !*diskBench && !*retryBench && !*decomposeBench && *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "usage: benchtab [-table1] [-figure6] [-facade] [-cache] [-disk] [-resolve-retry] [-decompose] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	ctx := context.Background()
	var rows []bench.Table1Row
	var points []bench.Figure6Point
	var facadePoints []bench.FacadePoint
	var cachePoints, diskPoints []bench.CachePoint
	var retryPoints []bench.ResolveRetryPoint
	var decomposePoints []bench.DecomposePoint
	if *table1 {
		opts := bench.Table1Options{SkipBaselines: *skipBaselines}
		if *quick {
			opts.MaxStates = 100000
			opts.MaxNodes = 500000
		}
		rows = bench.RunTable1(ctx, opts)
		fmt.Println("Table 1: synthesis of the benchmark suite (PUNT ACG vs. state-graph baselines)")
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
	}
	if *figure6 {
		opts := bench.Figure6Options{
			SkipBaselines:      *skipBaselines,
			IncludeCounterflow: true,
		}
		if *signalsFlag != "" {
			for _, part := range strings.Split(*signalsFlag, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchtab: bad -signals value %q\n", part)
					os.Exit(2)
				}
				opts.Signals = append(opts.Signals, v)
			}
		}
		if *quick {
			opts.ExplicitLimit = 50000
			opts.SymbolicLimit = 500000
			if len(opts.Signals) == 0 {
				opts.Signals = []int{5, 8, 12, 17, 22}
			}
		}
		points = bench.RunFigure6(ctx, opts)
		fmt.Println("Figure 6: synthesis time vs. number of signals (Muller pipeline; last row = counterflow pipeline)")
		fmt.Print(bench.FormatFigure6(points))
		fmt.Println()
	}
	if *facade || *jsonOut != "" {
		runs := *facadeRuns
		if *quick && runs > 2 {
			runs = 2
		}
		var err error
		facadePoints, err = bench.RunFacade(ctx, runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Facade: end-to-end public-API pipeline (parse + synthesize via punt.Synthesizer)")
		fmt.Print(bench.FormatFacade(facadePoints))
	}
	if *cacheBench || *jsonOut != "" {
		runs := *facadeRuns
		if *quick && runs > 2 {
			runs = 2
		}
		var err error
		cachePoints, err = bench.RunCache(ctx, runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Cache: cold synthesis vs warm content-addressed hit (punt.WithCache)")
		fmt.Print(bench.FormatCache(cachePoints))
	}
	if *diskBench || *jsonOut != "" {
		runs := *facadeRuns
		if *quick && runs > 2 {
			runs = 2
		}
		dir := *storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "punt-bench-store-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		var err error
		diskPoints, err = bench.RunDiskCache(ctx, dir, runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Disk store: cold synthesis vs warm hit through fresh tiers (restart cost; punt.NewTiered + punt.NewDiskCache)")
		fmt.Print(bench.FormatCache(diskPoints))
	}
	if *retryBench || *jsonOut != "" {
		conflicts := *retryConflicts
		if *quick && conflicts > 10 {
			conflicts = 10
		}
		var err error
		retryPoints, err = bench.RunResolveRetry(ctx, conflicts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Resolve retries: full state-graph rebuilds vs incremental extension per CSC candidate")
		fmt.Print(bench.FormatResolveRetry(retryPoints))
	}
	if *decomposeBench || *jsonOut != "" {
		runs := *facadeRuns
		if *quick && runs > 2 {
			runs = 2
		}
		var err error
		decomposePoints, err = bench.RunDecompose(ctx, runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Decompose: monolithic vs compositional synthesis (split, synthesize components in parallel, recombine)")
		fmt.Print(bench.FormatDecompose(decomposePoints))
	}
	if *jsonOut != "" {
		report := bench.NewReport(rows, points, facadePoints, cachePoints, diskPoints, retryPoints, decomposePoints, time.Now())
		if err := writeReport(*jsonOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeReport writes the JSON report to the given path ("-" = stdout).  The
// file's Close error is reported: on a full disk the write failure may only
// surface at Close, and a silently truncated report would corrupt the perf
// trajectory.
func writeReport(path string, r bench.Report) error {
	if path == "-" {
		return bench.WriteJSON(os.Stdout, r)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
