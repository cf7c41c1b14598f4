// Command punt synthesises a speed-independent circuit from an STG
// specification (.g file).  By default it uses the unfolding-based method of
// the paper: the STG-unfolding segment is built, partitioned into slices,
// and approximated covers are derived and refined for every output signal.
//
// Usage:
//
//	punt [-engine unfolding|explicit|symbolic|decompose|portfolio] [-exact]
//	     [-arch complex-gate|standard-c|rs-latch] [-verilog] [-stats]
//	     [-verify] [-cache] [-resolve-csc] [-max-csc-signals N]
//	     [-max-events N] [-max-states N] [-max-nodes N]
//	     [-deadline D] [-mem-budget BYTES] [-fallback] [-server URL]
//	     file.g [file2.g ...]
//
// With "-" as a file name the STG is read from standard input.
//
// With -engine the synthesis backend is selected by its registry name: the
// default unfolding flow, the state-graph baselines (explicit enumeration,
// "SIS-like", and symbolic BDD reachability, "Petrify-like"), the
// compositional decompose backend that splits the STG into independent
// components and synthesizes them in parallel, or the portfolio scheduler
// that races the three monolithic engines and keeps the first success.  An
// unknown engine (or architecture) name is a usage error and exits with
// status 2.  A specification the decompose engine cannot split falls
// through to the inner engine unchanged.
//
// -max-events bounds the unfolding segment, -max-nodes the symbolic engine's
// BDD, and -max-states every explicit state space of the run: the explicit
// engine's enumeration, the CSC resolver's and the closed-loop
// verification's.  Exceeding a bound fails the synthesis with status 1 (or
// the verification with status 3).
//
// With -resolve-csc a specification rejected for a Complete State Coding
// conflict is repaired automatically: internal state signals (csc0, csc1, …)
// are inserted until CSC holds (at most -max-csc-signals of them), the
// repaired specification is synthesised instead, and the result is checked by
// the closed-loop verifier against the repaired specification.  The insertion
// summary is reported on standard error.
//
// With -cache a content-addressed result cache is shared across the given
// files, so repeated specifications are synthesised once ( -stats marks the
// reused results with cached=true).
//
// With -verify the synthesised implementation is additionally checked by the
// closed-loop gate-level simulation (conformance, hazard-freedom, liveness);
// a failed or inconclusive verification exits with status 3, distinct from
// the synthesis-failure status 1 and the usage status 2.
//
// With -server the synthesis runs on a puntd daemon instead of in-process:
// each specification is submitted to URL/v1/synthesize with the same
// configuration the local flags would apply, and the response — the result
// document or a structured error — is rendered exactly like a local run,
// preserving the exit-code contract (1 synthesis failure, 2 usage, 3 failed
// verification, 4 budget exhaustion).  -verify is evaluated by the daemon;
// -cache is ignored, since the daemon maintains the shared result store.
//
// With -deadline (a duration, e.g. 500ms, rounded up to whole milliseconds)
// and -mem-budget (bytes) each synthesis attempt runs under a resource
// watchdog; an attempt that exhausts its budget exits with status 4 —
// distinct from every other failure — and the budget diagnostic (elapsed
// time, partial segment/state-space size) is printed on standard error.
// With -fallback a budget- or limit-exhausted synthesis is retried through a
// built-in degradation ladder (approximate mode, then the unfolding engine
// with a reduced segment bound); a degraded result still exits 0 and the
// attempt breakdown is reported on standard error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"punt"
	"punt/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it drives the whole command through the
// public punt facade and returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("punt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The synthesis configuration is the daemon's request vocabulary: the
	// local run applies it through req.Options, -server posts it as is.
	var req server.Request
	req.RegisterFlags(fs)
	verilog := fs.Bool("verilog", false, "emit a behavioural Verilog module instead of boolean equations")
	stats := fs.Bool("stats", false, "print the synthesis time breakdown (UnfTim/SynTim/EspTim)")
	useCache := fs.Bool("cache", false, "share a content-addressed result cache across the given files")
	serverURL := fs.String("server", "", "synthesize on a puntd daemon at this base URL instead of in-process")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		return usage(fs, stderr, nil)
	}

	// Bad -engine and -arch values are usage errors (exit 2), symmetric with
	// unknown flags, on the local and the -server path alike.
	opts, err := req.Options()
	if err != nil {
		return usage(fs, stderr, err)
	}
	if *useCache {
		opts = append(opts, punt.WithCache(punt.NewLRU(0)))
	}
	synth := punt.New(opts...)

	for _, path := range fs.Args() {
		spec, err := punt.LoadFileFrom(path, stdin)
		if err != nil {
			return fail(stderr, err)
		}
		var res *punt.Result
		var rep *punt.VerifyReport
		code := 0
		if *serverURL != "" {
			remote := req
			remote.Spec = spec.Text()
			res, code, err = remoteSynthesize(*serverURL, remote)
		} else {
			// The daemon's own synthesize-and-verify step and exit-code
			// mapping: 1 synthesis failure, 3 failed verification, 4 budget
			// exhaustion (the diagnostic carries the partial progress).
			res, rep, err = req.Synthesize(context.Background(), synth, spec)
			if err != nil {
				code = server.ExitCode(err)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "punt:", err)
			return code
		}
		if *stats {
			fmt.Fprintf(stderr, "%s\n", &res.Stats)
		}
		if res.Degraded() {
			fmt.Fprintf(stderr, "punt: %s: degraded to fallback step %q after exhausting the primary configuration\n",
				res.Spec.Name(), res.Degradation.Signal)
			for _, line := range res.Degradation.Trace {
				fmt.Fprintf(stderr, "punt:   %s\n", line)
			}
		}
		if res.Resolved() {
			fmt.Fprintf(stderr, "punt: %s: resolved CSC by inserting %s\n", res.Spec.Name(), res.Resolution.Signal)
			for _, line := range res.Resolution.Trace {
				fmt.Fprintf(stderr, "punt:   %s\n", line)
			}
		}
		if rep != nil && *stats {
			fmt.Fprintf(stderr, "%s\n", rep)
		}
		out := res.Eqn()
		if *verilog {
			out = res.Verilog()
		}
		// The netlist on stdout is the product of the run: a failing write
		// (closed pipe, full disk) must fail the command, not truncate the
		// circuit silently under exit 0.
		if _, err := io.WriteString(stdout, out); err != nil {
			fmt.Fprintln(stderr, "punt: writing output:", err)
			return 1
		}
	}
	return 0
}

// remoteSynthesize submits one specification to a puntd daemon and adapts
// the response to the local command's contract: a 200 yields the decoded
// Result, anything else yields the server-reported exit code — the same
// code a local run of the failing configuration would have returned.
func remoteSynthesize(baseURL string, req server.Request) (*punt.Result, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 1, err
	}
	url := strings.TrimRight(baseURL, "/") + "/v1/synthesize"
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 1, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 1, err
	}
	if resp.StatusCode == http.StatusOK {
		res, err := punt.DecodeResult(bytes.TrimSpace(data))
		if err != nil {
			return nil, 1, fmt.Errorf("decoding server result: %w", err)
		}
		return res, 0, nil
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.ExitCode != 0 {
		msg := eb.Error
		if eb.RetryAfter > 0 {
			msg = fmt.Sprintf("%s (retry after %ds)", msg, eb.RetryAfter)
		}
		return nil, eb.ExitCode, errors.New(msg)
	}
	return nil, 1, fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(data))
}

func usage(fs *flag.FlagSet, stderr io.Writer, err error) int {
	if err != nil {
		fmt.Fprintln(stderr, "punt:", err)
	}
	fmt.Fprintln(stderr, "usage: punt [flags] file.g [file2.g ...]")
	fs.PrintDefaults()
	return 2
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "punt:", err)
	return 1
}
