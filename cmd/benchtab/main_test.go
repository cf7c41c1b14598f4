package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"punt/internal/benchgen"
)

// smallFigure6Budget is tight enough for the explicit baseline to choke on a
// 22-signal pipeline, and loose enough for both baselines on 5 signals.
var smallFigure6Budget = budget{states: 20000, nodes: 100000}

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunTable1SmallSubset(t *testing.T) {
	var small []benchgen.BenchmarkEntry
	for _, e := range benchgen.Table1Suite() {
		if e.Signals <= 10 {
			small = append(small, e)
		}
	}
	rows := runTable1(context.Background(), small, table1Budget)
	if len(rows) != len(small) {
		t.Fatalf("rows = %d, want %d", len(rows), len(small))
	}
	for _, r := range rows {
		if r.literals <= 0 {
			t.Errorf("%s: PUNT produced no implementation (literals=%d)", r.name, r.literals)
		}
		if !r.sis.ok || !r.petrify.ok {
			t.Errorf("%s: baselines failed (SIS=%v petrify=%v)", r.name, r.sis.err, r.petrify.err)
		}
		// On small benchmarks all three flows derive exact or refined-exact
		// covers and use the same minimiser: literal counts should be close.
		if r.sis.ok && r.literals > 2*r.sis.literals+4 {
			t.Errorf("%s: PUNT literal count %d far above SIS %d", r.name, r.literals, r.sis.literals)
		}
	}
	text := formatTable1(rows)
	if !strings.Contains(text, "Benchmark") || !strings.Contains(text, "Total") {
		t.Fatalf("bad table formatting:\n%s", text)
	}
}

func TestRunTable1SkipBaselines(t *testing.T) {
	entry := benchgen.Table1Suite()[2] // nowick, 6 signals
	row := runTable1(context.Background(), []benchgen.BenchmarkEntry{entry}, budget{})[0]
	if row.literals <= 0 {
		t.Fatalf("no PUNT result: %+v", row)
	}
	if row.sis.ran || row.petrify.ran {
		t.Fatal("baselines should have been skipped")
	}
}

func TestRunFigure6SmallSweep(t *testing.T) {
	points := runFigure6(context.Background(), []int{5, 8, 12}, smallFigure6Budget)
	if len(points) != 4 {
		t.Fatalf("points = %d, want the 3 pipelines and counterflow", len(points))
	}
	for _, p := range points {
		if !p.punt.ok {
			t.Fatalf("PUNT failed at %d signals: %v", p.signals, p.punt.err)
		}
	}
	if last := points[3]; last.signals != 34 {
		t.Errorf("last point has %d signals, want the 34-signal counterflow pipeline", last.signals)
	}
	// The smallest size must be solvable by everyone.
	if !points[0].sis.ok || !points[0].petrify.ok {
		t.Fatal("baselines must handle the 5-signal pipeline")
	}
	text := formatFigure6(points)
	if !strings.Contains(text, "Signals") {
		t.Fatalf("bad figure formatting:\n%s", text)
	}
}

func TestFigure6BaselineChokesWherePUNTDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// With a deliberately small state budget the explicit baseline must give
	// up on a deep pipeline and on counterflow while PUNT completes: the
	// crossover of Figure 6.
	for _, p := range runFigure6(context.Background(), []int{22}, smallFigure6Budget) {
		if !p.punt.ok {
			t.Fatalf("PUNT must complete the %d-signal point: %v", p.signals, p.punt.err)
		}
		if p.sis.ok {
			t.Errorf("the explicit baseline should exceed its state budget at %d signals", p.signals)
		}
		if cell := fmtTool(p.sis); !strings.HasPrefix(cell, ">") || !strings.HasSuffix(cell, "*") {
			t.Errorf("an aborted baseline renders as %q, want >…*", cell)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no section", nil, "usage: benchtab"},
		{"unknown flag", []string{"-json", "-"}, "flag provided but not defined"},
		{"not a number", []string{"-figure6", "-signals", "5,nope"}, `bad -signals value "nope"`},
		{"too few signals", []string{"-figure6", "-signals", "2"}, `bad -signals value "2"`},
		{"zero signals", []string{"-figure6", "-signals", "0"}, `bad -signals value "0"`},
		{"negative signals", []string{"-figure6", "-signals", "-3"}, `bad -signals value "-3"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q misses %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("a usage error must not print a table:\n%s", stdout)
			}
		})
	}
}

func TestPuntOnlyRendersSkippedBaselinesAsDashes(t *testing.T) {
	code, stdout, stderr := runCmd("-table1", "-figure6", "-quick", "-punt-only", "-signals", "5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, bad := range []string{">", "0/0"} {
		if strings.Contains(stdout, bad) {
			t.Errorf("skipped baselines render as %q, which reads as aborted or empty:\n%s", bad, stdout)
		}
	}
	var total string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "Total") {
			total = line
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(total), "-            -    -/-") {
		t.Errorf("Total row must show skipped baselines as -: %q", total)
	}
	if !strings.Contains(stdout, "      34 |") {
		t.Errorf("Figure 6 misses the counterflow point:\n%s", stdout)
	}
}
