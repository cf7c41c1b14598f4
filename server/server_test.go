package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"punt"
	"punt/internal/faultinject"
)

// slowBackend is a registered backend that blocks until its gate is opened,
// counting entries — the instrument behind the single-flight and admission
// tests.  It delegates the actual synthesis to the real unfolding flow.
type slowBackend struct {
	mu    sync.Mutex
	gate  chan struct{}
	count atomic.Int64
}

func (b *slowBackend) Name() string { return "server-test-slow" }

func (b *slowBackend) Synthesize(ctx context.Context, spec *punt.Spec, cfg punt.BackendConfig) (*punt.Result, error) {
	b.count.Add(1)
	b.mu.Lock()
	gate := b.gate
	b.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return punt.New(punt.WithEngine(punt.Unfolding)).Synthesize(ctx, spec)
}

// arm installs a fresh closed gate and resets the counter; the returned
// function opens it.
func (b *slowBackend) arm() (release func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gate := make(chan struct{})
	b.gate = gate
	b.count.Store(0)
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

var slow = &slowBackend{}

func init() { punt.Register(slow) }

// post submits one synthesis request and returns the response.
func post(t *testing.T, client *http.Client, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, client, url, body)
}

// postRaw submits a raw request body and returns the response.
func postRaw(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// wantResult decodes a 200 response through the canonical serializer.
func wantResult(t *testing.T, resp *http.Response, data []byte) *punt.Result {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	res, err := punt.DecodeResult(bytes.TrimSpace(data))
	if err != nil {
		t.Fatalf("decoding result: %v\n%s", err, data)
	}
	return res
}

func TestSynthesizeColdThenWarm(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := Request{Spec: punt.Fig1().Text()}
	resp, data := post(t, ts.Client(), ts.URL, req)
	cold := wantResult(t, resp, data)
	if cold.Stats.Cached {
		t.Error("first synthesis reported cached")
	}
	if got := resp.Header.Get("X-Punt-Cache"); got != "miss" {
		t.Errorf("X-Punt-Cache = %q, want miss", got)
	}

	resp, data = post(t, ts.Client(), ts.URL, req)
	warm := wantResult(t, resp, data)
	if !warm.Stats.Cached {
		t.Error("second synthesis not served from the cache")
	}
	if got := resp.Header.Get("X-Punt-Cache"); got != "hit" {
		t.Errorf("X-Punt-Cache = %q, want hit", got)
	}
	if warm.Eqn() != cold.Eqn() {
		t.Error("warm hit changed the implementation")
	}

	st := srv.Stats()
	if st.Requests != 2 || st.WarmHits != 1 || st.Syntheses != 1 {
		t.Errorf("stats = %+v, want 2 requests / 1 warm hit / 1 synthesis", st)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRepliasShareStore stands up two servers over one store directory —
// two puntd replicas behind a load balancer — and proves a result
// synthesized by one is a warm hit on the other.
func TestReplicasShareStore(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	dir := t.TempDir()
	replica := func() (*Server, *httptest.Server) {
		disk, err := punt.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Cache: punt.NewTiered(punt.NewLRU(0), disk)})
		return srv, httptest.NewServer(srv.Handler())
	}
	srvA, tsA := replica()
	defer tsA.Close()
	srvB, tsB := replica()
	defer tsB.Close()

	req := Request{Spec: punt.Handshake().Text()}
	respA, dataA := post(t, tsA.Client(), tsA.URL, req)
	cold := wantResult(t, respA, dataA)

	respB, dataB := post(t, tsB.Client(), tsB.URL, req)
	warm := wantResult(t, respB, dataB)
	if !warm.Stats.Cached {
		t.Fatal("replica B did not serve replica A's result as a warm hit")
	}
	if warm.Eqn() != cold.Eqn() || warm.Spec.Hash() != cold.Spec.Hash() {
		t.Error("replicas disagree on the shared result")
	}
	if st := srvB.Stats(); st.WarmHits != 1 || st.Syntheses != 0 {
		t.Errorf("replica B stats = %+v, want a pure warm hit", st)
	}
	for _, srv := range []*Server{srvA, srvB} {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleFlight floods the server with identical concurrent requests and
// proves exactly one synthesis runs: the rest join the in-flight one.
func TestSingleFlight(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := slow.arm()
	defer release()

	const n = 8
	req := Request{Spec: punt.Fig1().Text(), Engine: slow.Name()}
	var wg sync.WaitGroup
	results := make([]*punt.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.Client(), ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			results[i], errs[i] = punt.DecodeResult(bytes.TrimSpace(data))
		}(i)
	}
	// Wait until the one leader is inside the backend, then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Give followers a moment to join the flight before releasing.
	time.Sleep(50 * time.Millisecond)
	release()
	wg.Wait()

	if got := slow.count.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d identical requests, want exactly 1", got, n)
	}
	eqns := make(map[string]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		eqns[results[i].Eqn()] = true
	}
	if len(eqns) != 1 {
		t.Errorf("deduplicated requests returned %d distinct implementations", len(eqns))
	}
	st := srv.Stats()
	if st.Syntheses != 1 {
		t.Errorf("syntheses = %d, want 1", st.Syntheses)
	}
	if st.Joined == 0 {
		t.Error("no request joined the in-flight synthesis")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadRejects proves the admission bound: with one slot, no queue
// and the slot held, a request for different work is answered 429 with a
// Retry-After header instead of waiting without bound.
func TestOverloadRejects(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := slow.arm()
	defer release()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text(), Engine: slow.Name()})
		wantResult(t, resp, data)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Different spec → different flight → needs its own slot → 429.
	resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Handshake().Text(), Engine: slow.Name()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("429 body is not JSON: %v\n%s", err, data)
	}
	if body.ExitCode != 1 || body.RetryAfter == 0 {
		t.Errorf("429 body = %+v", body)
	}

	release()
	wg.Wait()
	if st := srv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestErrorMapping pins the HTTP status and exit code of each failure class
// the client CLI keys off.
func TestErrorMapping(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cscText := mustReadSpecText(t, "../testdata/csc.g")
	fig1JSON, err := json.Marshal(punt.Fig1().Text())
	if err != nil {
		t.Fatal(err)
	}
	withFig1 := func(fields string) string { return `{"spec":` + string(fig1JSON) + fields + `}` }
	for _, tc := range []struct {
		name     string
		req      Request
		raw      string // request body to send instead of req
		status   int
		exitCode int
		sentinel error
	}{
		{
			name:     "unknown engine is usage",
			req:      Request{Spec: punt.Fig1().Text(), Engine: "warp-drive"},
			status:   http.StatusBadRequest,
			exitCode: 2,
			sentinel: punt.ErrUnknownEngine,
		},
		{
			// The backend field is gone: a client still sending it fails
			// loudly instead of silently getting the default engine.
			name:     "unknown backend is usage",
			raw:      withFig1(`,"backend":"explicit"`),
			status:   http.StatusBadRequest,
			exitCode: 2,
		},
		{
			name:     "unknown field is usage",
			raw:      withFig1(`,"bogus":1`),
			status:   http.StatusBadRequest,
			exitCode: 2,
		},
		{
			name:     "misspelt field is usage",
			raw:      withFig1(`,"resolvecsc":true`),
			status:   http.StatusBadRequest,
			exitCode: 2,
		},
		{
			name:     "unparsable spec",
			req:      Request{Spec: "this is not a .g file"},
			status:   http.StatusBadRequest,
			exitCode: 1,
		},
		{
			name:     "CSC conflict",
			req:      Request{Spec: cscText},
			status:   http.StatusUnprocessableEntity,
			exitCode: 1,
			sentinel: punt.ErrCSC,
		},
		{
			// Explicit enumeration of a 22-stage pipeline (2^22-ish states)
			// cannot finish in 50ms, so the watchdog trips deterministically.
			name:     "budget exhaustion",
			req:      Request{Spec: punt.MullerPipelineWithSignals(24).Text(), Engine: "explicit", DeadlineMS: 50},
			status:   http.StatusServiceUnavailable,
			exitCode: 4,
			sentinel: punt.ErrBudget,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var data []byte
			if tc.raw != "" {
				resp, data = postRaw(t, ts.Client(), ts.URL, []byte(tc.raw))
			} else {
				resp, data = post(t, ts.Client(), ts.URL, tc.req)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var body ErrorBody
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("error body is not JSON: %v\n%s", err, data)
			}
			if body.ExitCode != tc.exitCode {
				t.Errorf("exit_code = %d, want %d (%s)", body.ExitCode, tc.exitCode, body.Error)
			}
			if errors.Is(tc.sentinel, punt.ErrUnknownEngine) {
				// A usage error carries no diagnostic; the message names the
				// bad engine and the registered alternatives.
				if !strings.Contains(body.Error, "unknown engine") || !strings.Contains(body.Error, "decompose") {
					t.Errorf("error = %q, want the unknown engine and the engine list", body.Error)
				}
			} else if tc.sentinel != nil {
				if body.Diagnostic == nil {
					t.Fatalf("no structured diagnostic attached: %s", data)
				}
				if !errors.Is(body.Diagnostic, tc.sentinel) {
					t.Errorf("decoded diagnostic does not match %v: %+v", tc.sentinel, body.Diagnostic)
				}
			}
		})
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func mustReadSpecText(t *testing.T, path string) string {
	t.Helper()
	spec, err := punt.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Text()
}

// TestStreaming drives the newline-delimited variant: progress lines arrive
// before the terminal result line, and the result decodes through the same
// serializer as the plain response.
func TestStreaming(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Spec: punt.MullerPipeline(6).Text(), Stream: true})
	resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	var progress int
	var res *punt.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Progress *punt.Progress  `json:"progress"`
			Result   json.RawMessage `json:"result"`
			Error    *ErrorBody      `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Progress != nil:
			if res != nil {
				t.Error("progress after the terminal line")
			}
			if line.Progress.Stage == "" {
				t.Errorf("progress without a stage: %+v", line.Progress)
			}
			progress++
		case line.Result != nil:
			res, err = punt.DecodeResult(line.Result)
			if err != nil {
				t.Fatalf("terminal result does not decode: %v", err)
			}
		case line.Error != nil:
			t.Fatalf("stream failed: %+v", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Error("no progress events forwarded")
	}
	if res == nil {
		t.Fatal("stream ended without a result line")
	}
	if res.Eqn() == "" {
		t.Error("streamed result has no implementation")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDisconnect cancels a streaming request mid-synthesis and proves
// the server tears the work down without leaking goroutines.
func TestStreamDisconnect(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := slow.arm()
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(Request{Spec: punt.Fig1().Text(), Engine: slow.Name(), Stream: true})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// The backend is now blocked on its gate; hang up mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The synthesis must unwind through the cancelled context — the gate
	// stays closed, so anything still running would hang Drain.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("server did not drain after a mid-stream disconnect: %v", err)
	}

	// And the server still works afterwards.
	release()
	resp2, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text()})
	wantResult(t, resp2, data)
}

// TestAbandonedFlightIsCancelled proves the single-flight refcount: when
// every client of an in-flight synthesis disconnects, the work is cancelled
// instead of running to completion unobserved.
func TestAbandonedFlightIsCancelled(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := slow.arm()
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(Request{Spec: punt.Handshake().Text(), Engine: slow.Name()})
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(hreq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	// Without the abandon-cancel the leader goroutine would block on the
	// gate forever and Drain would time out.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("abandoned flight was not cancelled: %v", err)
	}
}

// TestChaosServer sweeps seeded fault schedules — injected cancellations,
// panics and corruptions across the facade, cache, disk store and
// single-flight checkpoints — through concurrent requests, asserting every
// response is either a valid result or a structured error, the server keeps
// serving, and nothing leaks.
func TestChaosServer(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}

	specs := []*punt.Spec{punt.Fig1(), punt.Handshake(), punt.MullerPipeline(4)}
	for seed := 0; seed < 12; seed++ {
		inj := faultinject.Schedule(int64(seed), faultinject.FacadeOps, 1+seed%3, 2)
		disk, err := punt.NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{
			Cache: punt.NewTiered(punt.NewLRU(0), disk),
			WrapContext: func(ctx context.Context) context.Context {
				return faultinject.With(ctx, inj)
			},
		})
		ts := httptest.NewServer(srv.Handler())

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := Request{Spec: specs[(seed+i)%len(specs)].Text(), Stream: i%2 == 1}
				body, _ := json.Marshal(req)
				resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("seed %d: transport error: %v", seed, err)
					return
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				checkChaosResponse(t, seed, req, resp, data)
			}(i)
		}
		wg.Wait()

		// The replica must still serve clean requests after the schedule.
		resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: server unhealthy after chaos (fired %v): %d %s",
				seed, inj.Fired(), resp.StatusCode, data)
		}
		if _, err := punt.DecodeResult(bytes.TrimSpace(data)); err != nil {
			t.Fatalf("seed %d: post-chaos result does not decode: %v", seed, err)
		}
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Drain(dctx); err != nil {
			t.Fatalf("seed %d: drain failed: %v", seed, err)
		}
		dcancel()
		ts.Close()
	}
}

// checkChaosResponse asserts the chaos invariant for one response: a 200
// carries a decodable result, anything else carries a structured JSON error.
func checkChaosResponse(t *testing.T, seed int, req Request, resp *http.Response, data []byte) {
	t.Helper()
	if req.Stream {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		terminal := false
		for sc.Scan() {
			var line struct {
				Progress *punt.Progress  `json:"progress"`
				Result   json.RawMessage `json:"result"`
				Error    *ErrorBody      `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Errorf("seed %d: bad stream line %q: %v", seed, sc.Text(), err)
				return
			}
			if line.Result != nil {
				if _, err := punt.DecodeResult(line.Result); err != nil {
					t.Errorf("seed %d: stream result does not decode: %v", seed, err)
				}
				terminal = true
			}
			if line.Error != nil {
				if line.Error.Error == "" || line.Error.ExitCode == 0 {
					t.Errorf("seed %d: malformed stream error: %+v", seed, line.Error)
				}
				terminal = true
			}
		}
		if !terminal {
			t.Errorf("seed %d: stream ended without a terminal line:\n%s", seed, data)
		}
		return
	}
	if resp.StatusCode == http.StatusOK {
		if _, err := punt.DecodeResult(bytes.TrimSpace(data)); err != nil {
			t.Errorf("seed %d: 200 response does not decode: %v\n%s", seed, err, data)
		}
		return
	}
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Errorf("seed %d: %d response is not a JSON error: %v\n%s", seed, resp.StatusCode, err, data)
		return
	}
	if body.Error == "" || body.ExitCode == 0 {
		t.Errorf("seed %d: malformed error body: %+v", seed, body)
	}
}

// TestStatsEndpoint smoke-checks the observability surface.
func TestStatsEndpoint(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	disk, err := punt.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cache: punt.NewTiered(punt.NewLRU(0), disk)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text()})
	wantResult(t, resp, data)
	resp, data = post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text()})
	wantResult(t, resp, data)

	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.WarmHits != 1 || st.Syntheses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cache == nil || st.Cache.Tier != "tiered" || len(st.Cache.Tiers) != 2 {
		t.Fatalf("stats carry no per-tier cache breakdown: %+v", st.Cache)
	}
	if disk := st.Cache.Tiers[1]; disk.Tier != "disk" || disk.Entries != 1 {
		t.Errorf("disk tier = %+v, want one persisted entry", disk)
	}

	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hresp.StatusCode)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(srv.Stats().Cache.String(), "tiered") {
		t.Error("cache stats String lost the tier name")
	}
}

// TestRetryAfterScalesWithLoad pins the derived overload hint: Retry-After
// is the median observed synthesis time scaled by the work standing between
// the rejected request and a free slot, so a deeper queue means a longer
// back-off — not a hard-coded "1".
func TestRetryAfterScalesWithLoad(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2, MaxQueue: -1})

	if got := srv.retryAfterSeconds(); got != 1 {
		t.Fatalf("with no observations retryAfterSeconds = %d, want the 1s fallback", got)
	}

	for i := 0; i < 5; i++ {
		srv.observeSynthesis(4 * time.Second)
	}
	idle := srv.retryAfterSeconds() // ahead=1, slots=2 → ceil(4s·1/2) = 2
	if idle != 2 {
		t.Fatalf("idle retryAfterSeconds = %d, want 2", idle)
	}

	// Saturate the slots and stack a queue: the same median must now yield a
	// proportionally longer hint.  ahead = 3 queued + 2 in flight + 1 self.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	srv.queued.Add(3)
	loaded := srv.retryAfterSeconds() // ceil(4s·6/2) = 12
	if loaded != 12 {
		t.Fatalf("loaded retryAfterSeconds = %d, want 12", loaded)
	}
	if loaded <= idle {
		t.Fatalf("hint does not scale with load: idle %d, loaded %d", idle, loaded)
	}

	// Pathological synthesis times clamp at the 60s ceiling.
	for i := 0; i < durRingSize; i++ {
		srv.observeSynthesis(10 * time.Minute)
	}
	if got := srv.retryAfterSeconds(); got != 60 {
		t.Fatalf("clamped retryAfterSeconds = %d, want 60", got)
	}
}

// TestRetryAfterHeaderMatchesBody drives a real rejection end to end after
// seeding the duration ring, asserting the header carries the derived value
// (not "1") and agrees with the JSON body.
func TestRetryAfterHeaderMatchesBody(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	for i := 0; i < 5; i++ {
		srv.observeSynthesis(7 * time.Second)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := slow.arm()
	defer release()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Fig1().Text(), Engine: slow.Name()})
		wantResult(t, resp, data)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Handshake().Text(), Engine: slow.Name()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("429 body is not JSON: %v\n%s", err, data)
	}
	// median 7s, ahead = 0 queued + 1 in flight + 1 self, slots 1 → 14s.
	if body.RetryAfter != 14 {
		t.Errorf("derived RetryAfter = %d, want 14", body.RetryAfter)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprintf("%d", body.RetryAfter) {
		t.Errorf("Retry-After header %q disagrees with body %d", got, body.RetryAfter)
	}

	release()
	wg.Wait()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLoadHonoursRequestContext checks that loading a spec without
// .initial_state, which builds its unfolding segment, runs under the request
// context capped by MaxSynthTime: a cancelled request aborts the load, and a
// load that outlives the ceiling fails with the status, exit code and kind of
// a synthesis that outlives it.
func TestLoadHonoursRequestContext(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	withState := punt.MullerPipelineWithSignals(12).Text()
	var stripped strings.Builder
	for _, line := range strings.SplitAfter(withState, "\n") {
		if !strings.HasPrefix(line, ".initial_state") {
			stripped.WriteString(line)
		}
	}
	errorOf := func(t *testing.T, cfg Config, spec string) (int, ErrorBody) {
		t.Helper()
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, data := post(t, ts.Client(), ts.URL, Request{Spec: spec})
		var body ErrorBody
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("error body is not JSON: %v\n%s", err, data)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	cancelled := Config{WrapContext: func(ctx context.Context) context.Context {
		ctx, cancel := context.WithCancel(ctx)
		cancel()
		return ctx
	}}
	status, body := errorOf(t, cancelled, stripped.String())
	if status != http.StatusServiceUnavailable || body.ExitCode != 4 || body.Kind != punt.KindCanceled.String() {
		t.Fatalf("cancelled load: status %d, exit %d, kind %q (%s)", status, body.ExitCode, body.Kind, body.Error)
	}

	ceiling := Config{MaxSynthTime: time.Nanosecond}
	loadStatus, loadBody := errorOf(t, ceiling, stripped.String())
	synthStatus, synthBody := errorOf(t, ceiling, withState)
	if loadStatus != synthStatus || loadBody.ExitCode != synthBody.ExitCode || loadBody.Kind != synthBody.Kind {
		t.Fatalf("load past the ceiling: %d/%d/%q; synthesis past it: %d/%d/%q",
			loadStatus, loadBody.ExitCode, loadBody.Kind, synthStatus, synthBody.ExitCode, synthBody.Kind)
	}
	if loadStatus != http.StatusServiceUnavailable || loadBody.ExitCode != 4 || loadBody.Kind != punt.KindCanceled.String() {
		t.Fatalf("load past the ceiling: status %d, exit %d, kind %q (%s)", loadStatus, loadBody.ExitCode, loadBody.Kind, loadBody.Error)
	}
}

// TestDirectiveLessLoadIsAdmitted checks that loading a spec without
// .initial_state, which builds its unfolding segment, takes a synthesis slot:
// with the only slot held and no queue, the directive-less spec is turned
// away with 429 although its result is cached, while the same spec with the
// directive is still answered from the cache before admission.
func TestDirectiveLessLoadIsAdmitted(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	withState := punt.Fig1().Text()
	var stripped strings.Builder
	for _, line := range strings.SplitAfter(withState, "\n") {
		if !strings.HasPrefix(line, ".initial_state") {
			stripped.WriteString(line)
		}
	}
	resp, data := post(t, ts.Client(), ts.URL, Request{Spec: withState})
	wantResult(t, resp, data)

	release := slow.arm()
	defer release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := post(t, ts.Client(), ts.URL, Request{Spec: punt.Handshake().Text(), Engine: slow.Name()})
		wantResult(t, resp, data)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for slow.count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, data = post(t, ts.Client(), ts.URL, Request{Spec: withState})
	wantResult(t, resp, data)
	resp, data = post(t, ts.Client(), ts.URL, Request{Spec: stripped.String()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("directive-less load with every slot taken: status %d, want 429: %s", resp.StatusCode, data)
	}

	release()
	wg.Wait()
	resp, data = post(t, ts.Client(), ts.URL, Request{Spec: stripped.String()})
	wantResult(t, resp, data)
	if st := srv.Stats(); st.WarmHits != 2 || st.Rejected != 1 {
		t.Errorf("warm hits %d, rejected %d; want 2 and 1", st.WarmHits, st.Rejected)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
