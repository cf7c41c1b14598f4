package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"punt/internal/benchgen"
)

func TestRunTable1SmallSubset(t *testing.T) {
	suite := benchgen.Table1Suite()
	var small []benchgen.BenchmarkEntry
	for _, e := range suite {
		if e.Signals <= 10 {
			small = append(small, e)
		}
	}
	rows := RunTable1(context.Background(), small, Table1Options{})
	if len(rows) != len(small) {
		t.Fatalf("rows = %d, want %d", len(rows), len(small))
	}
	for _, r := range rows {
		if r.Literals <= 0 {
			t.Errorf("%s: PUNT produced no implementation (literals=%d)", r.Name, r.Literals)
		}
		if !r.SIS.Ok || !r.Petrify.Ok {
			t.Errorf("%s: baselines failed (SIS=%v petrify=%v)", r.Name, r.SIS.Reason, r.Petrify.Reason)
		}
		// On small benchmarks all three flows derive exact or refined-exact
		// covers and use the same minimiser: literal counts should be close.
		if r.SIS.Ok && r.Literals > 2*r.SIS.Literals+4 {
			t.Errorf("%s: PUNT literal count %d far above SIS %d", r.Name, r.Literals, r.SIS.Literals)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Benchmark") || !strings.Contains(text, "Total") {
		t.Fatalf("bad table formatting:\n%s", text)
	}
}

func TestRunTable1SkipBaselines(t *testing.T) {
	entry := benchgen.Table1Suite()[2] // nowick, 6 signals
	row := RunTable1Entry(context.Background(), entry, Table1Options{SkipBaselines: true})
	if row.Literals <= 0 {
		t.Fatalf("no PUNT result: %+v", row)
	}
	if row.SIS.Ok || row.Petrify.Ok {
		t.Fatal("baselines should have been skipped")
	}
}

func TestRunFigure6SmallSweep(t *testing.T) {
	points := RunFigure6(context.Background(), Figure6Options{
		Signals:       []int{5, 8, 12},
		ExplicitLimit: 50000,
		SymbolicLimit: 500000,
	})
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if !p.PUNT.Ok {
			t.Fatalf("PUNT failed at %d signals: %s", p.Signals, p.PUNT.Reason)
		}
	}
	// The smallest size must be solvable by everyone.
	if !points[0].SIS.Ok || !points[0].Petrify.Ok {
		t.Fatal("baselines must handle the 5-signal pipeline")
	}
	text := FormatFigure6(points)
	if !strings.Contains(text, "Signals") {
		t.Fatalf("bad figure formatting:\n%s", text)
	}
}

func TestFigure6BaselineChokesWherePUNTDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// With a deliberately small state budget the explicit baseline must give
	// up on a deep pipeline while PUNT completes: the crossover of Figure 6.
	points := RunFigure6(context.Background(), Figure6Options{
		Signals:       []int{22},
		ExplicitLimit: 20000,
		SymbolicLimit: 100000,
	})
	p := points[0]
	if !p.PUNT.Ok {
		t.Fatalf("PUNT must complete the 22-signal pipeline: %s", p.PUNT.Reason)
	}
	if p.SIS.Ok {
		t.Fatal("the explicit baseline should exceed its state budget at this size")
	}
}

func TestJSONReportRoundTrip(t *testing.T) {
	suite := benchgen.Table1Suite()[:2]
	rows := RunTable1(context.Background(), suite, Table1Options{SkipBaselines: true})
	points := RunFigure6(context.Background(), Figure6Options{Signals: []int{5}, SkipBaselines: true})
	facade := []FacadePoint{{Spec: "fig1", Runs: 3, Parse: time.Millisecond, Synth: 2 * time.Millisecond, Total: 3 * time.Millisecond, Literals: 5, Events: 8}}
	cache := []CachePoint{{Spec: "fig1", Runs: 3, Cold: 4 * time.Millisecond, Warm: 2 * time.Microsecond, Speedup: 2000, Literals: 2}}
	disk := []CachePoint{{Spec: "fig1", Runs: 3, Cold: 4 * time.Millisecond, Warm: 80 * time.Microsecond, Speedup: 50, Literals: 2}}
	report := NewReport(rows, points, facade, cache, disk, nil, nil, time.Unix(0, 0))

	if len(report.Table1) != len(rows) || len(report.Figure6) != len(points) {
		t.Fatalf("report sizes: table1=%d figure6=%d", len(report.Table1), len(report.Figure6))
	}
	if len(report.Facade) != 1 || report.Facade[0].Spec != "fig1" || report.Facade[0].SynthSeconds != 0.002 {
		t.Fatalf("facade point not carried into the report: %+v", report.Facade)
	}
	if len(report.Cache) != 1 || report.Cache[0].ColdSeconds != 0.004 || report.Cache[0].Speedup != 2000 {
		t.Fatalf("cache point not carried into the report: %+v", report.Cache)
	}
	if len(report.DiskCache) != 1 || report.DiskCache[0].WarmSeconds != 0.00008 {
		t.Fatalf("disk-cache point not carried into the report: %+v", report.DiskCache)
	}
	if report.Table1[0].Conditions != rows[0].Conditions {
		t.Fatal("table1 conditions column not carried into the report")
	}
	if report.Table1[0].Name != rows[0].Name || report.Table1[0].Events != rows[0].Events {
		t.Fatal("table1 row not carried into the report")
	}
	if report.Table1[0].TotalSeconds != rows[0].TotalTime.Seconds() {
		t.Fatal("durations must be converted to seconds")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(back.Table1) != len(report.Table1) || back.Table1[0].Name != report.Table1[0].Name {
		t.Fatal("JSON round trip lost rows")
	}
	if back.GeneratedAt != "1970-01-01T00:00:00Z" {
		t.Fatalf("generated_at = %q", back.GeneratedAt)
	}
}
