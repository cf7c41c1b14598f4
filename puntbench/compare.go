package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runSet is a recorded set of runs: the document -record writes and
// -compare reads.
type runSet struct {
	Env     env           `json:"env"`
	Seconds float64       `json:"seconds"`
	Runs    []recordedRun `json:"runs"`
	// Summary holds, per workload and metric, the median and quartiles
	// over the runs.
	Summary map[string]map[string]summary `json:"summary"`
}

type recordedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median.
	Spread float64 `json:"spread"`
}

// env is the environment a run set was recorded in.
type env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GODEBUG is the runtime settings the runs had; run.sh sets
	// madvdontneed=0.
	GODEBUG   string `json:"godebug"`
	Commit    string `json:"commit,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	Timestamp string `json:"timestamp"`
}

// runsPerSet is the number of runs of each workload in a recorded set.
const runsPerSet = 5

// recordRuns runs every workload runsPerSet times, one process per run,
// and writes the run set.  The runs go round the workloads in turn, so a
// slow spell of the machine touches few runs of any one workload.  A run
// that fails an op or an output check stops the recording: no set holding
// an incorrect run is written.
func recordRuns(path, only string, seed int64, seconds float64, stdout, stderr io.Writer) int {
	names := workloadNames()
	if only != "" {
		if _, ok := lookup(only); !ok {
			fmt.Fprintf(stderr, "puntbench: unknown workload %q\n", only)
			return 2
		}
		names = []string{only}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %v\n", err)
		return 1
	}
	set := runSet{Env: captureEnv(), Seconds: seconds}
	for i := 0; i < runsPerSet; i++ {
		s := seed + int64(i)
		for _, name := range names {
			res, err := runChild(self, name, s, seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "puntbench: %s seed %d: %v; no run set written\n", name, s, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s seed=%d attempted=%d\n", name, s, res.Attempted)
			set.Runs = append(set.Runs, recordedRun{Workload: name, Seed: s, result: *res})
		}
	}
	set.summarize()
	blob, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: writing %s: %v\n", path, err)
		return 1
	}
	return 0
}

// runChild runs one untraced run in a child process and parses its last
// line.  A child that fails exits non-zero, having said why on stderr.
func runChild(self, name string, seed int64, seconds float64, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}

func captureEnv() env {
	e := env{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GODEBUG:    os.Getenv("GODEBUG"),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// values returns each workload's values of each metric, in run order.
func (s *runSet) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range s.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func (s *runSet) summarize() {
	units := make(map[string]string)
	for _, r := range s.Runs {
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	s.Summary = make(map[string]map[string]summary)
	for w, byMetric := range s.values() {
		s.Summary[w] = make(map[string]summary)
		for name, xs := range byMetric {
			q1, q2, q3 := quartiles(xs)
			s.Summary[w][name] = summary{Unit: units[name], N: len(xs), Q1: q1, Median: q2, Q3: q3, Spread: spread(xs)}
		}
	}
}

func readRunSet(path string) (*runSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range doc.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, not %q", path, b.Name, b.Better)
		}
	}
	return doc.EndToEnd, nil
}

// verdict judges B against A for one metric: worse or better when the
// medians differ by more than the bound, within otherwise, and unresolved
// when either side's spread exceeds the bound, unless every run of B beats
// every run of A.
func verdict(a, b []float64, bd bound) (string, float64) {
	ma, mb := median(a), median(b)
	delta := (mb - ma) / ma
	gain := -delta
	if bd.Better == "higher" {
		gain = delta
	}
	beats := func(x, y float64) bool {
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case spread(a) > bd.Bound || spread(b) > bd.Bound:
		if allBetter {
			return "better", delta
		}
		return "unresolved", delta
	case gain < -bd.Bound:
		return "worse", delta
	case gain > bd.Bound:
		return "better", delta
	}
	return "within", delta
}

// compareRunSets prints one row per workload and end-to-end metric and
// returns 1 when any verdict is worse or either set holds an incorrect run.
func compareRunSets(pathA, pathB, boundsPath string, stdout, stderr io.Writer) int {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %v\n", err)
		return 2
	}
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %v\n", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "puntbench: %v\n", err)
		return 2
	}
	return printComparison(a, b, bounds, stdout)
}

func printComparison(a, b *runSet, bounds []bound, out io.Writer) int {
	va, vb := a.values(), b.values()
	var names []string
	for w := range va {
		if vb[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %-19s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound", "verdict")
	status := 0
	for _, side := range []struct {
		name string
		set  *runSet
	}{{"A", a}, {"B", b}} {
		for _, r := range side.set.Runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(out, "%-12s %-19s %s seed %d: %d of %d ops failed  failed\n", r.Workload, "correct", side.name, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	for _, w := range names {
		for _, bd := range bounds {
			xa, xb := va[w][bd.Name], vb[w][bd.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-12s %-19s missing on one side\n", w, bd.Name)
				continue
			}
			v, delta := verdict(xa, xb, bd)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(out, "%-12s %-19s %-30s %-30s %+7.1f%% %5.0f%%  %s\n",
				w, bd.Name, quartileCell(xa), quartileCell(xb), 100*delta, 100*bd.Bound, v)
		}
	}
	return status
}

func quartileCell(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", q2, q1, q3)
}
