package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func embeddedGolden(t *testing.T) map[string]string {
	t.Helper()
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// smokeSeconds keeps every workload at about one round; puntd gets a
// second of traffic.
func smokeSeconds(name string) float64 {
	if name == "puntd" {
		return 1
	}
	return 0.3
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks the reported metrics and the span tree.
func TestWorkloadsSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // puntd's disk store goes there
	golden := embeddedGolden(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: smokeSeconds(w.name), golden: golden}
			res, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}

			cfg.trace = true
			cfg.spans = filepath.Join(t.TempDir(), "spans.json")
			res, err = runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%t failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			shares := 0.0
			for _, m := range perLayer {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", m.name, got, m.unit)
				}
				if strings.HasSuffix(m.name, "share") {
					shares += got.Value
				}
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("layer shares add up to %g, want 1", shares)
			}
			if v := res.Metrics["unfolding.ms_p50"].Value; !(v > 0) {
				t.Errorf("unfolding.ms_p50 = %g, want > 0 on every workload", v)
			}

			blob, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			if err := checkTree(doc.Spans); err != nil {
				t.Error(err)
			}
			ops := 0
			for _, s := range doc.Spans {
				if s.Name == "op" {
					ops++
				}
			}
			if ops == 0 {
				t.Error("traced run recorded no op spans")
			}
		})
	}
}

// TestGoldenMismatchFails corrupts one golden hash: the run must report
// the failure and exit non-zero.
func TestGoldenMismatchFails(t *testing.T) {
	golden := embeddedGolden(t)
	golden["pipeline-22"] = strings.Repeat("0", 64)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fig6", "--seed", "1", "--seconds", "0.3", "--trace", "0"}, golden, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit status 0 with a corrupted golden hash; stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%t failed=%d, want a reported failure", res.Correct, res.Failed)
	}
}

func TestUsageErrors(t *testing.T) {
	golden := embeddedGolden(t)
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig6", "--trace", "2"},
		{"--workload", "fig6", "--seconds", "0"},
		{"-compare", "one.json"},
		{"-record", "set.json", "--trace", "1"},
	} {
		if code := run(args, golden, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// corpusHash hashes every generated text and the order of the first
// puntd rounds.
func corpusHash(seed int64) (all, cold string) {
	h, hc := sha256.New(), sha256.New()
	_, texts := controllerCorpus(seed)
	for _, s := range texts {
		io.WriteString(h, s)
	}
	tr := newPuntdTraffic(seed)
	for r := 0; r < 3; r++ {
		for _, in := range tr.round() {
			fmt.Fprintf(h, "%d:%t;", in, tr.twice[in])
		}
	}
	for i, s := range tr.texts {
		io.WriteString(h, s)
		if i >= puntdWarmSet {
			io.WriteString(hc, s)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", hc.Sum(nil))
}

func TestSeededCorpus(t *testing.T) {
	a1, c1 := corpusHash(3)
	a2, c2 := corpusHash(3)
	if a1 != a2 || c1 != c2 {
		t.Error("the same seed gave different inputs or rounds")
	}
	_, c3 := corpusHash(4)
	if c3 == c1 {
		t.Error("another seed gave the same novel specs")
	}
	_, texts1 := controllerCorpus(3)
	_, texts2 := controllerCorpus(4)
	if texts1[len(texts1)-1] == texts2[len(texts2)-1] {
		t.Error("another seed gave the same random controllers")
	}
}

func TestPuntdRounds(t *testing.T) {
	tr := newPuntdTraffic(1)
	seen := make(map[int]bool)
	warmHits := make(map[int]int)
	for r := 0; r < 10; r++ {
		ids := tr.round()
		if len(ids) != puntdRound {
			t.Fatalf("round %d has %d requests, want %d", r, len(ids), puntdRound)
		}
		novel, twice := 0, 0
		for _, in := range ids {
			if in < puntdWarmSet {
				warmHits[in]++
				continue
			}
			if seen[in] {
				t.Errorf("round %d repeats novel input %d", r, in)
			}
			seen[in] = true
			novel++
			if tr.twice[in] {
				twice++
			}
		}
		if novel != puntdNovel || twice != 1 {
			t.Errorf("round %d: %d novel specs, %d sent twice; want %d and 1", r, novel, twice, puntdNovel)
		}
	}
	if len(tr.names) != len(tr.texts) || len(tr.texts) != puntdWarmSet+10*puntdNovel {
		t.Errorf("%d names and %d texts after 10 rounds, want %d", len(tr.names), len(tr.texts), puntdWarmSet+10*puntdNovel)
	}
	// Zipf popularity: the first warm spec is drawn most.
	for in, n := range warmHits {
		if n > warmHits[0] {
			t.Errorf("warm input %d drawn %d times, more than input 0 (%d)", in, n, warmHits[0])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestLatencyP50ByInput: with two inputs run equally often, latency_p50_ms
// lies halfway between their medians, whatever their extreme samples are;
// traced samples do not count.
func TestLatencyP50ByInput(t *testing.T) {
	d := &runData{}
	for i, l := range []time.Duration{1, 2, 9, 3} {
		d.samples = append(d.samples,
			sample{input: 0, latency: l * time.Millisecond},
			sample{input: 1, latency: (10 + 10*l) * time.Millisecond},
			sample{input: 1, traced: true, latency: time.Duration(i) * time.Millisecond})
	}
	// Input 0 has median 2.5 ms, input 1 has 35 ms.
	if got := endToEnd(d, time.Second)["latency_p50_ms"].Value; got != 18.75 {
		t.Errorf("latency_p50_ms = %g, want 18.75", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		a, b []float64
		bd   bound
		want string
	}{
		{steady, []float64{102, 103, 101, 102, 102}, lower, "within"},
		{steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{steady, []float64{80, 81, 79, 80, 80}, lower, "better"},
		{steady, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{[]float64{60, 140, 100, 70, 130}, []float64{120, 121, 119, 120, 120}, lower, "unresolved"},
		{[]float64{100, 140, 120, 105, 135}, []float64{60, 61, 59, 60, 60}, lower, "better"},
	} {
		if got, _ := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.bd.Better, got, c.want)
		}
	}
}

func TestCompareExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, correct bool) string {
		set := runSet{}
		for i := 0; i < 5; i++ {
			r := result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"latency_p50_ms": {latency + float64(i)/100, "ms"}},
			}
			if i == 2 && !correct {
				r.Correct, r.Failed = false, 1
			}
			set.Runs = append(set.Runs, recordedRun{Workload: "fig6", Seed: int64(i), result: r})
		}
		path := filepath.Join(dir, name)
		blob, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow := write("a.json", 10, true), write("same.json", 10.2, true), write("slow.json", 20, true)
	incorrect := write("incorrect.json", 10.2, false)
	var out bytes.Buffer
	if code := compareRunSets(a, same, bounds, &out, io.Discard); code != 0 {
		t.Errorf("compare against the same numbers exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRunSets(a, slow, bounds, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare against a slower run set exits %d:\n%s", code, out.String())
	}
	// The same numbers, but one run failed its output checks.
	out.Reset()
	if code := compareRunSets(a, incorrect, bounds, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "failed") {
		t.Errorf("compare against a set with an incorrect run exits %d:\n%s", code, out.String())
	}
}

// TestRunChildRefusesIncorrectRuns: a run that fails an op or a check is an
// error to -record, whatever its exit status.
func TestRunChildRefusesIncorrectRuns(t *testing.T) {
	dir := t.TempDir()
	for name, script := range map[string]string{
		"exit1": `echo '{"correct":false,"attempted":3,"failed":1,"metrics":{}}'; exit 1`,
		"exit0": `echo '{"correct":true,"attempted":3,"failed":1,"metrics":{}}'`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+script+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		if res, err := runChild(path, "fig6", 1, 1, io.Discard); err == nil {
			t.Errorf("%s: incorrect run accepted: %+v", name, res)
		}
	}
}

func TestCheckTree(t *testing.T) {
	good := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100},
		{Name: "spec.parse", ID: 2, Parent: 1, Op: 1, Start: 10, End: 30},
		{Name: "synthesize", ID: 3, Parent: 1, Op: 1, Start: 20, End: 90},
	}
	if err := checkTree(good); err != nil {
		t.Fatal(err)
	}
	// The children overlap on [20,30]: the op's self time counts it once.
	if self := selfTimes(good)[1]; self != 100-80 {
		t.Errorf("op self time %d, want 20", self)
	}
	orphan := append([]span(nil), good...)
	orphan[1].Parent = 9
	outside := append([]span(nil), good...)
	outside[2].End = 120
	for name, spans := range map[string][]span{"orphan": orphan, "outside": outside} {
		if checkTree(spans) == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the registry and
// the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if e := doc.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, reported %s in %s", i, e, m.name, m.unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := doc.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, reported %s in %s, %s is better", i, e, m.name, m.unit, m.better)
		}
	}
}
