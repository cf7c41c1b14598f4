package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// The CLI golden tests drive the whole command in-process through run(),
// which exercises exactly the public facade path a user's shell invocation
// takes: flag parsing, LoadFile/stdin, the Synthesizer and the emitters.

const fig1Eqn = "# implementation of paper-fig1 (2 literals)\nb = a + c\n"

func runCmd(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestEquationsGolden(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("stdout = %q, want the Figure 1 cover b = a + c:\n%q", stdout, fig1Eqn)
	}
}

func TestVerilogFlag(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-verilog", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"module paper_fig1", "assign b = (a) | (c);", "endmodule"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("verilog output missing %q:\n%s", want, stdout)
		}
	}
}

func TestStatsFlag(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-stats", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("equations must still go to stdout, got %q", stdout)
	}
	// The paper's Figure 1 segment has 8 events and 2 cut-offs.
	for _, want := range []string{"events=8", "cutoffs=2"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stats output missing %q: %s", want, stderr)
		}
	}
}

func TestExactModeMatchesApproximate(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-exact", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("-exact changed the Figure 1 cover: %q", stdout)
	}
}

func TestStdinDash(t *testing.T) {
	spec := `
.model tiny
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.initial_state 00
.end
`
	code, stdout, stderr := runCmd(t, []string{"-"}, spec)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "b = a") {
		t.Errorf("stdin synthesis output: %q", stdout)
	}
}

func TestVerifyFlagPasses(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-verify", "-stats", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("equations must still go to stdout, got %q", stdout)
	}
	if !strings.Contains(stderr, "verified 1 gates") {
		t.Errorf("-verify -stats should report the verification summary, got: %s", stderr)
	}
}

func TestVerifyFailureExitsThree(t *testing.T) {
	// A verification that cannot complete within its composed-state budget
	// must exit with the dedicated verification status 3, not with the
	// synthesis-failure status 1.
	code, stdout, stderr := runCmd(t, []string{"-verify", "-max-states", "2", "../../testdata/fig1.g"}, "")
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("no implementation must be printed when verification fails, got %q", stdout)
	}
	if !strings.Contains(stderr, "resource limit") && !strings.Contains(stderr, "state limit") {
		t.Errorf("stderr should explain the verification failure: %s", stderr)
	}
}

func TestSynthesisFailureStaysExitOne(t *testing.T) {
	// -verify must not reclassify synthesis failures: a non-semi-modular
	// specification still fails during synthesis with exit 1.
	code, _, stderr := runCmd(t, []string{"-verify", "../../testdata/nonsm.g"}, "")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "not semi-modular") {
		t.Errorf("stderr should report the synthesis failure: %s", stderr)
	}
}

func TestNonSemiModularErrorExit(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"../../testdata/nonsm.g"}, "")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s", code, stdout)
	}
	if stdout != "" {
		t.Errorf("no implementation must be printed on failure, got %q", stdout)
	}
	if !strings.Contains(stderr, "not semi-modular") {
		t.Errorf("stderr should report the semi-modularity violation: %s", stderr)
	}
}

func TestBadArchitectureAndUsageExits(t *testing.T) {
	// Bad flag values are usage errors: exit 2, like unknown flags.
	if code, _, stderr := runCmd(t, []string{"-arch", "nand-only", "../../testdata/fig1.g"}, ""); code != 2 ||
		!strings.Contains(stderr, "unknown architecture") {
		t.Errorf("bad -arch: exit=%d stderr=%s", code, stderr)
	}
	if code, _, _ := runCmd(t, nil, ""); code != 2 {
		t.Errorf("missing file argument must exit 2, got %d", code)
	}
	if code, _, stderr := runCmd(t, []string{"no-such-file.g"}, ""); code != 1 ||
		!strings.Contains(stderr, "no-such-file.g") {
		t.Errorf("missing file: exit=%d stderr=%s", code, stderr)
	}
}

func TestEngineFlag(t *testing.T) {
	// Every engine — the baselines and the portfolio scheduler included —
	// derives the same Figure 1 cover.
	for _, engine := range []string{"unfolding", "explicit", "symbolic", "decompose", "portfolio"} {
		code, stdout, stderr := runCmd(t, []string{"-engine", engine, "../../testdata/fig1.g"}, "")
		if code != 0 {
			t.Fatalf("-engine %s: exit %d, stderr: %s", engine, code, stderr)
		}
		if stdout != fig1Eqn {
			t.Errorf("-engine %s changed the Figure 1 cover: %q", engine, stdout)
		}
	}
}

func TestPortfolioStatsNameContenders(t *testing.T) {
	code, _, stderr := runCmd(t, []string{"-engine", "portfolio", "-stats", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "portfolio=[") || !strings.Contains(stderr, "(winner)") {
		t.Errorf("-stats should carry the per-contender breakdown, got: %s", stderr)
	}
}

func TestDecomposeEngineStats(t *testing.T) {
	// A divisible specification through -engine decompose reports the
	// per-component breakdown in -stats and still prints a full netlist.
	code, stdout, stderr := runCmd(t, []string{"-engine", "decompose", "-stats", "../../testdata/twoloops.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "decomposed=2[") {
		t.Errorf("-stats should carry the component breakdown, got: %s", stderr)
	}
	for _, sig := range []string{"a1 =", "a2 ="} {
		if !strings.Contains(stdout, sig) {
			t.Errorf("netlist missing %q:\n%s", sig, stdout)
		}
	}
}

func TestBadEngineExitsTwo(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-engine", "quantum", "../../testdata/fig1.g"}, "")
	if code != 2 {
		t.Fatalf("bad -engine must be a usage error (exit 2), got %d; stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("no implementation must be printed, got %q", stdout)
	}
	if !strings.Contains(stderr, "unknown engine") || !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr should name the bad engine and show usage: %s", stderr)
	}
}

func TestResolveCSCFlag(t *testing.T) {
	// Without -resolve-csc the CSC-conflicted controller fails with exit 1.
	code, stdout, stderr := runCmd(t, []string{"../../testdata/csc.g"}, "")
	if code != 1 || stdout != "" {
		t.Fatalf("without -resolve-csc: exit=%d stdout=%q stderr=%s", code, stdout, stderr)
	}
	// With it the repair is automatic: the implementation (including the
	// inserted csc0 gate) goes to stdout and the insertion summary to stderr.
	code, stdout, stderr = runCmd(t, []string{"-resolve-csc", "-verify", "../../testdata/csc.g"}, "")
	if code != 0 {
		t.Fatalf("-resolve-csc: exit=%d stderr=%s", code, stderr)
	}
	for _, want := range []string{"out1 =", "out2 =", "csc0 ="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("implementation missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "resolved CSC by inserting csc0") ||
		!strings.Contains(stderr, "csc0+ after out1+") {
		t.Errorf("stderr should carry the insertion summary, got: %s", stderr)
	}
}

func TestResolveCSCSignalBound(t *testing.T) {
	// A -max-csc-signals bound of zero falls back to the default and still
	// repairs; the flag is plumbed through (a negative bound is also the
	// default, so use a generous explicit bound to prove acceptance).
	code, stdout, stderr := runCmd(t, []string{"-resolve-csc", "-max-csc-signals", "2", "-stats", "../../testdata/csc.g"}, "")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "csc-inserted=1") {
		t.Errorf("-stats should report the insertion counters: %s", stderr)
	}
	if !strings.Contains(stdout, "csc0 =") {
		t.Errorf("stdout: %q", stdout)
	}
}

func TestMultiFileWithSharedCache(t *testing.T) {
	// The same file twice with -cache: the second synthesis is a cache hit,
	// visible in its -stats line, and both implementations are emitted.
	code, stdout, stderr := runCmd(t,
		[]string{"-cache", "-stats", "../../testdata/fig1.g", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn+fig1Eqn {
		t.Errorf("both files must be synthesised, got %q", stdout)
	}
	if !strings.Contains(stderr, "cached=true") {
		t.Errorf("the repeated spec should be served from the cache: %s", stderr)
	}
	if strings.Count(stderr, "cached=true") != 1 {
		t.Errorf("only the second run may be cached: %s", stderr)
	}
}

func TestDeadlineExhaustionExitsFour(t *testing.T) {
	// Explicit enumeration of the 22-stage pipeline cannot finish in 50ms:
	// the budget trip must use its own exit status, distinct from synthesis
	// failure (1), usage (2) and verification (3), and print the budget
	// diagnostic.
	code, _, stderr := runCmd(t,
		[]string{"-engine", "explicit", "-deadline", "50ms", "../../testdata/pipeline24.g"}, "")
	if code != 4 {
		t.Fatalf("exit = %d, want 4; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "budget exhausted") || !strings.Contains(stderr, "deadline 50ms") {
		t.Errorf("stderr should carry the budget diagnostic: %s", stderr)
	}
}

func TestFallbackFlagDegrades(t *testing.T) {
	// The same over-budget request with -fallback degrades to the unfolding
	// engine and succeeds, reporting the attempt ladder on stderr.  The
	// deadline is far above what the unfolding rungs need even under the race
	// detector's slowdown, yet explicit enumeration of the ~4M-state pipeline
	// cannot come close to finishing within it.
	code, stdout, stderr := runCmd(t,
		[]string{"-engine", "explicit", "-deadline", "2s", "-fallback", "-stats",
			"../../testdata/pipeline24.g"}, "")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if stdout == "" {
		t.Error("no implementation emitted")
	}
	if !strings.Contains(stderr, "degraded to fallback step") {
		t.Errorf("stderr should report the degradation: %s", stderr)
	}
	if !strings.Contains(stderr, "attempts=[") {
		t.Errorf("-stats should render the attempt ladder: %s", stderr)
	}
}

func TestBadDeadlineIsUsageError(t *testing.T) {
	if code, _, _ := runCmd(t, []string{"-deadline", "soon", "../../testdata/fig1.g"}, ""); code != 2 {
		t.Fatalf("exit = %d, want the usage status 2", code)
	}
}

// brokenWriter fails every write, simulating a closed pipe or a full disk.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// A failing stdout must fail the run: the artifact on stdout is the
// command's product, and truncating it under exit 0 corrupts pipelines.
func TestOutputWriteFailureExitsNonZero(t *testing.T) {
	var errb bytes.Buffer
	code := run([]string{"../../testdata/fig1.g"}, strings.NewReader(""), brokenWriter{}, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on a failing stdout", code)
	}
	if !strings.Contains(errb.String(), "writing output") {
		t.Errorf("stderr should report the output failure: %s", errb.String())
	}
}

// fig1Verilog is the Figure 1 module every engine emits with -verilog.
const fig1Verilog = `// Generated by punt: 2 literals
module paper_fig1 (a, c, b);
  input a, c;
  output b;
  assign b = (a) | (c);
endmodule
`

// TestBaselineEngines drives the state-graph baselines (explicit
// enumeration, "SIS-like", and symbolic BDD reachability, "Petrify-like")
// through -engine: their goldens, their resource bounds and their exit
// statuses.
func TestBaselineEngines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		broken bool // stdout fails every write
		code   int
		stdout string   // exact standard output
		stderr []string // substrings of standard error
	}{
		{name: "explicit golden", args: []string{"-engine", "explicit", "../../testdata/fig1.g"}, stdout: fig1Eqn},
		{
			// Figure 1 has 8 reachable states; the stats line must carry the
			// engine name and the state count.
			name:   "symbolic golden with stats",
			args:   []string{"-engine", "symbolic", "-stats", "../../testdata/fig1.g"},
			stdout: fig1Eqn,
			stderr: []string{"engine=symbolic", "states=8"},
		},
		{name: "explicit verilog", args: []string{"-engine", "explicit", "-verilog", "../../testdata/fig1.g"}, stdout: fig1Verilog},
		{name: "symbolic verilog", args: []string{"-engine", "symbolic", "-verilog", "../../testdata/fig1.g"}, stdout: fig1Verilog},
		{name: "explicit CSC conflict exits 1", args: []string{"-engine", "explicit", "../../testdata/csc.g"}, code: 1, stderr: []string{"CSC"}},
		{name: "symbolic CSC conflict exits 1", args: []string{"-engine", "symbolic", "../../testdata/csc.g"}, code: 1, stderr: []string{"CSC"}},
		{
			name:   "state limit exits 1",
			args:   []string{"-engine", "explicit", "-max-states", "3", "../../testdata/fig1.g"},
			code:   1,
			stderr: []string{"state graph larger than 3 states"},
		},
		{
			name:   "node limit exits 1",
			args:   []string{"-engine", "symbolic", "-max-nodes", "5", "../../testdata/fig1.g"},
			code:   1,
			stderr: []string{"BDD grew beyond 5 nodes"},
		},
		{
			name:   "deadline exits 4",
			args:   []string{"-engine", "explicit", "-deadline", "50ms", "../../testdata/pipeline24.g"},
			code:   4,
			stderr: []string{"budget exhausted"},
		},
		{
			name:   "output write failure exits 1",
			args:   []string{"-engine", "explicit", "../../testdata/fig1.g"},
			broken: true,
			code:   1,
			stderr: []string{"writing output"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			var stdout io.Writer = &out
			if tc.broken {
				stdout = brokenWriter{}
			}
			code := run(tc.args, strings.NewReader(""), stdout, &errb)
			if code != tc.code {
				t.Fatalf("exit = %d, want %d; stderr: %s", code, tc.code, errb.String())
			}
			if got := out.String(); got != tc.stdout {
				t.Errorf("stdout = %q, want %q", got, tc.stdout)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(errb.String(), want) {
					t.Errorf("stderr missing %q: %s", want, errb.String())
				}
			}
		})
	}
}
