package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"punt"
	"punt/server"
)

// startDaemon runs an in-process puntd-equivalent server for the client
// tests.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func writeSpec(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.g")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServerModeGolden(t *testing.T) {
	ts := startDaemon(t)
	code, stdout, stderr := runCmd(t, []string{"-server", ts.URL, "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("remote stdout = %q, want the same golden equations as a local run:\n%q", stdout, fig1Eqn)
	}
}

func TestServerModeWarmHit(t *testing.T) {
	ts := startDaemon(t)
	args := []string{"-server", ts.URL, "-stats", "../../testdata/fig1.g"}
	if code, _, stderr := runCmd(t, args, ""); code != 0 {
		t.Fatalf("cold run: exit %d, stderr: %s", code, stderr)
	}
	code, stdout, stderr := runCmd(t, args, "")
	if code != 0 {
		t.Fatalf("warm run: exit %d, stderr: %s", code, stderr)
	}
	if stdout != fig1Eqn {
		t.Errorf("warm stdout = %q", stdout)
	}
	if !strings.Contains(stderr, "cached=true") {
		t.Errorf("-stats did not mark the daemon's warm hit: %s", stderr)
	}
}

func TestServerModeVerilog(t *testing.T) {
	ts := startDaemon(t)
	code, stdout, stderr := runCmd(t, []string{"-server", ts.URL, "-verilog", "../../testdata/fig1.g"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "module paper_fig1") {
		t.Errorf("remote result did not render Verilog locally:\n%s", stdout)
	}
}

// TestServerModeExitCodes pins the exit-code contract across the wire: each
// failure class must exit with the same status a local run would.
func TestServerModeExitCodes(t *testing.T) {
	ts := startDaemon(t)

	t.Run("synthesis failure is 1", func(t *testing.T) {
		code, _, stderr := runCmd(t, []string{"-server", ts.URL, "../../testdata/csc.g"}, "")
		if code != 1 {
			t.Fatalf("CSC conflict: exit %d, want 1; stderr: %s", code, stderr)
		}
		if !strings.Contains(stderr, "Complete State Coding") {
			t.Errorf("stderr lost the diagnostic: %s", stderr)
		}
	})
	t.Run("usage failure is 2", func(t *testing.T) {
		// Bad vocabulary is rejected locally, before any network traffic.
		code, _, _ := runCmd(t, []string{"-server", ts.URL, "-engine", "warp-drive", "../../testdata/fig1.g"}, "")
		if code != 2 {
			t.Fatalf("bad engine: exit %d, want 2", code)
		}
	})
	t.Run("budget exhaustion is 4", func(t *testing.T) {
		spec := writeSpec(t, punt.MullerPipelineWithSignals(24).Text())
		code, _, stderr := runCmd(t, []string{"-server", ts.URL, "-engine", "explicit", "-deadline", "50ms", spec}, "")
		if code != 4 {
			t.Fatalf("budget: exit %d, want 4; stderr: %s", code, stderr)
		}
	})
	t.Run("server exit code passes through", func(t *testing.T) {
		// A stub daemon reporting a verification failure: the client must
		// relay exit code 3 without interpreting the message.
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			_, _ = w.Write([]byte(`{"error":"implementation fails verification","exit_code":3}`))
		}))
		defer stub.Close()
		code, _, stderr := runCmd(t, []string{"-server", stub.URL, "../../testdata/fig1.g"}, "")
		if code != 3 {
			t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
		}
	})
	t.Run("unreachable server is 1", func(t *testing.T) {
		code, _, _ := runCmd(t, []string{"-server", "http://127.0.0.1:1", "../../testdata/fig1.g"}, "")
		if code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	})
}

// TestServerModeParity pins -max-states to one meaning on both paths: it
// bounds the explicit engine's enumeration and the verification locally
// exactly as it does on the daemon, so a local run and a -server run of the
// same flags exit with the same status and print the same bytes — also when
// the daemon's cache already holds the implementation from a request that
// did not verify.
func TestServerModeParity(t *testing.T) {
	ts := startDaemon(t)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-engine", "explicit", "-max-states", "3"}, 1},
		{[]string{"-engine", "explicit", "-max-states", "8"}, 0},
		{[]string{"-engine", "explicit", "-max-states", "8", "-verify"}, 0},
		{[]string{"-max-states", "2"}, 0},
		{[]string{"-max-states", "2", "-verify"}, 3},
	} {
		args := append(tc.args, "../../testdata/fig1.g")
		code, stdout, stderr := runCmd(t, args, "")
		rcode, rstdout, rstderr := runCmd(t, append([]string{"-server", ts.URL}, args...), "")
		if code != rcode || stdout != rstdout || stderr != rstderr {
			t.Errorf("%v: local (%d, %q, %q) != remote (%d, %q, %q)",
				tc.args, code, stdout, stderr, rcode, rstdout, rstderr)
		}
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr: %s", tc.args, code, tc.code, stderr)
		}
	}
}
