package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanSpecReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"CSC: ok", "USC: ok", "output persistency: ok", "deadlocks: none"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "conflict 1:") {
		t.Errorf("a clean spec must not print conflict detail:\n%s", stdout)
	}
}

func TestCSCConflictDetail(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"../../testdata/csc.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// The verdict line and, below it, the structured per-conflict detail:
	// state pair with shared code, differing outputs and witness traces.
	for _, want := range []string{
		"CSC: 1 conflicts",
		"conflict 1: code 100: state 1 {out1+} vs state 5 {out2+}, differing on out1,out2",
		"witness to state 1: req+",
		"witness to state 5: req+ out1+ req- out1- req+/2",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

func TestMaxConflictsTruncation(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"-max-conflicts", "0", "../../testdata/csc.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "… 1 more conflicts") {
		t.Errorf("truncation notice missing:\n%s", stdout)
	}
}

func TestDecompositionReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, []string{"../../testdata/twoloops.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"decomposition: 2 independent components",
		"two-loops_c0: 2 signals (1 outputs): r1 a1",
		"two-loops_c1: 2 signals (1 outputs): r2 a2",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}

	code, stdout, stderr = runCmd(t, []string{"../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "decomposition: indivisible") {
		t.Errorf("fig1 must report as indivisible:\n%s", stdout)
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	if code, _, _ := runCmd(t, nil, ""); code != 2 {
		t.Errorf("missing file argument must exit 2, got %d", code)
	}
	if code, _, stderr := runCmd(t, []string{"no-such-file.g"}, ""); code != 1 ||
		!strings.Contains(stderr, "no-such-file.g") {
		t.Errorf("missing file: exit=%d stderr=%s", code, stderr)
	}
}

func TestRenderTrace(t *testing.T) {
	if got := renderTrace(nil); got != "(initial state)" {
		t.Errorf("empty trace renders %q", got)
	}
	if got := renderTrace([]string{"a+", "b-"}); got != "a+ b-" {
		t.Errorf("trace renders %q", got)
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

// fig1Dump is the Figure 1 segment as -dump prints it.
const fig1Dump = `unfolding of "paper-fig1": 8 events (2 cut-offs), 12 conditions
  ⊥ -> {p1:c0}
  a+:e1  code=100  {p1:c0} -> {p2:c1,p3:c2}
  c+:e2  code=010  {p1:c0} -> {p4:c3}
  b+/2:e3  code=101  {p2:c1} -> {p5:c4}
  c+/2:e4  code=110  {p3:c2} -> {p6:c5,p8:c6}
  b+:e5  code=011  {p4:c3} -> {p7:c7,p8:c8}
  c-:e6  code=001  {p7:c7,p8:c8} -> {p9:c9}
  a-:e7 [cutoff]  code=011  {p5:c4,p6:c5} -> {p7:c10}
  b-:e8 [cutoff]  code=000  {p9:c9} -> {p1:c11}
`

// TestDump pins -dump: the segment of every test specification, byte for
// byte (by SHA-256 beyond Figure 1), and its exit statuses.
func TestDump(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		broken bool // stdout fails every write
		code   int
		stdout string // exact standard output, or its SHA-256 in hex
		stderr string // substring of standard error
	}{
		{name: "fig1", args: []string{"-dump", "../../testdata/fig1.g"}, stdout: fig1Dump},
		{name: "csc", args: []string{"-dump", "../../testdata/csc.g"},
			stdout: "4053cbebc777c3e0ca47e7def74df646ee8100825e7add21d977a169bc53c545"},
		{name: "nonsm", args: []string{"-dump", "../../testdata/nonsm.g"},
			stdout: "fc1c12f580806631ae84cf51c5c7aaf0155c70e5297e81a46e90f90f502b5da6"},
		{name: "pipeline24", args: []string{"-dump", "../../testdata/pipeline24.g"},
			stdout: "375e04e2ee8028b3ac71662d541e99d2e94662225a90fc28a96c51d88cadb7db"},
		{name: "twoloops", args: []string{"-dump", "../../testdata/twoloops.g"},
			stdout: "e903144337026c856c52d36ac7e141b3e00f679f793219d759dc1efc355b250f"},
		{name: "event limit exits 1", args: []string{"-dump", "-max-events", "3", "../../testdata/fig1.g"},
			code: 1, stderr: "event limit exceeded (4 events, limit 3)"},
		{name: "usage exits 2", args: []string{"-dump"}, code: 2, stderr: "usage:"},
		{name: "missing file exits 1", args: []string{"-dump", "no-such-file.g"}, code: 1, stderr: "no-such-file.g"},
		{name: "output write failure exits 1", args: []string{"-dump", "../../testdata/fig1.g"},
			broken: true, code: 1, stderr: "writing output"},
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
			got := out.String()
			if len(tc.stdout) == sha256.Size*2 {
				sum := sha256.Sum256(out.Bytes())
				got = hex.EncodeToString(sum[:])
			}
			if got != tc.stdout {
				t.Errorf("stdout = %q, want %q", got, tc.stdout)
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr missing %q: %s", tc.stderr, errb.String())
			}
		})
	}
}
