// Package server implements puntd's HTTP API: synthesis as a service over
// the punt facade.
//
// Endpoints:
//
//	POST /v1/synthesize  — submit a .g specification plus configuration
//	                       (JSON, see Request — the punt CLI's vocabulary;
//	                       unknown fields are rejected); responds with the
//	                       Result's canonical JSON document, or — with
//	                       "stream": true — with newline-delimited JSON
//	                       forwarding progress events live before the final
//	                       result line.
//	GET  /v1/stats       — counters: requests, warm hits, syntheses,
//	                       single-flight joins, rejections, and the per-tier
//	                       cache breakdown.
//	GET  /healthz        — liveness probe.
//
// The server answers warm cache hits before admission control, deduplicates
// concurrent identical requests into a single synthesis (single-flight), and
// bounds cold work with a slot pool plus a bounded wait queue; beyond that it
// rejects with 429 and a Retry-After header instead of queueing without
// bound.  Loading a spec without .initial_state builds its unfolding segment,
// so it is cold work too: it takes a slot before the warm-hit lookup.  Every error response carries the CLI exit status the failure maps
// to (see ErrorBody), so remote and local invocations are interchangeable.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"punt"
	"punt/internal/faultinject"
	"punt/internal/stg"
)

// Config parameterises a Server.  The zero value is usable: an in-memory
// result cache, one synthesis slot per CPU, a queue twice that deep and a
// two-minute ceiling per synthesis.
type Config struct {
	// Cache is the shared result cache consulted before any synthesis and
	// fed by every successful one.  Wire a punt.Tiered over a punt.DiskCache
	// for warm hits that survive restarts and span replicas.  nil selects a
	// process-local punt.NewLRU(0).
	Cache punt.Cache
	// MaxConcurrent bounds how many syntheses, and loads of specs without
	// .initial_state, run at once (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a slot before
	// the server answers 429 (0 = 2×MaxConcurrent, negative = no queue).
	MaxQueue int
	// MaxRequestBytes bounds the request body (0 = 1 MiB).
	MaxRequestBytes int64
	// MaxSynthTime is the hard per-synthesis wall-clock ceiling, applied on
	// top of any client-requested deadline (0 = 2 minutes).  It also caps
	// loading a spec without .initial_state, which builds a segment.
	MaxSynthTime time.Duration
	// WrapContext, when non-nil, wraps every request context before use —
	// the hook the chaos tests use to attach a fault-injection schedule.
	WrapContext func(context.Context) context.Context
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	// Requests counts synthesis requests accepted for processing (malformed
	// ones included); WarmHits the subset answered straight from the cache;
	// Syntheses the syntheses actually started (after warm hits and
	// single-flight dedup); Joined the requests that attached to another
	// request's in-flight synthesis; Rejected the admission-control 429s;
	// Errors the failed syntheses.
	Requests  int64 `json:"requests"`
	WarmHits  int64 `json:"warm_hits"`
	Syntheses int64 `json:"syntheses"`
	Joined    int64 `json:"joined"`
	Rejected  int64 `json:"rejected"`
	Errors    int64 `json:"errors"`
	// InFlight and Queued are point-in-time gauges of the admission state.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Cache is the per-tier cache breakdown, when the cache reports one.
	Cache *punt.CacheStats `json:"cache,omitempty"`
}

// Server is the puntd request handler.  Create with New, expose with
// Handler, and on shutdown call Drain after the HTTP listener has stopped
// accepting requests, so detached single-flight syntheses finish writing the
// shared store.
type Server struct {
	cfg     Config
	cache   punt.Cache
	sem     chan struct{}
	queued  atomic.Int64
	flights *flightGroup
	wg      sync.WaitGroup

	// durMu guards a ring of recent synthesis wall-clock times; its median
	// feeds the Retry-After estimate of overload rejections.
	durMu   sync.Mutex
	durRing [durRingSize]time.Duration
	durLen  int
	durNext int

	requests  atomic.Int64
	warmHits  atomic.Int64
	syntheses atomic.Int64
	joined    atomic.Int64
	rejected  atomic.Int64
	errs      atomic.Int64
}

// New builds a Server from cfg, applying the documented defaults.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 2 * cfg.MaxConcurrent
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	if cfg.MaxSynthTime <= 0 {
		cfg.MaxSynthTime = 2 * time.Minute
	}
	cache := cfg.Cache
	if cache == nil {
		cache = punt.NewLRU(0)
	}
	return &Server{
		cfg:     cfg,
		cache:   cache,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		flights: newFlightGroup(),
	}
}

// Handler returns the server's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Drain waits for detached syntheses (single-flight leaders whose clients
// disconnected, in-flight cache writes) to finish, up to ctx's deadline.
// Call it after the HTTP server has stopped accepting requests.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	//puntlint:ignore gohygiene the body is wg.Wait plus a channel close — panic-free by construction
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:  s.requests.Load(),
		WarmHits:  s.warmHits.Load(),
		Syntheses: s.syntheses.Load(),
		Joined:    s.joined.Load(),
		Rejected:  s.rejected.Load(),
		Errors:    s.errs.Load(),
		InFlight:  len(s.sem),
		Queued:    int(s.queued.Load()),
	}
	if sp, ok := s.cache.(interface{ Stats() punt.CacheStats }); ok {
		cs := sp.Stats()
		st.Cache = &cs
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	ctx := r.Context()
	if s.cfg.WrapContext != nil {
		ctx = s.cfg.WrapContext(ctx)
	}

	var req Request
	// Unknown fields are usage errors: a misspelt option must fail loudly
	// instead of silently running the default configuration.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, &usageError{fmt.Errorf("decoding request: %w", err)})
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := s.load(ctx, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}

	events := make(chan punt.Progress, 64)
	stream := req.Stream || r.URL.Query().Get("stream") == "1"
	if stream {
		opts = append(opts, punt.WithProgress(func(p punt.Progress) {
			// Never let a slow client stall the synthesizing goroutine:
			// drop events the stream writer has not drained yet.
			select {
			case events <- p:
			default:
			}
		}))
	}
	opts = append(opts, punt.WithCache(s.cache))
	synth := punt.New(opts...)

	// Warm hits are answered before admission control: a repeat request
	// costs a cache lookup, and must never be queued — or rejected —
	// behind cold work.  A request that asks for verification is real work
	// even when the implementation is cached (the entry may come from a
	// request that did not verify), so it takes the admitted path.
	if !req.Verify {
		if res, ok := synth.Cached(ctx, spec); ok {
			s.warmHits.Add(1)
			s.respond(w, req, stream, res, nil)
			return
		}
	}

	if stream {
		// Streaming requests run solo: progress events belong to one
		// response, so they bypass single-flight (the final result still
		// lands in the shared cache for everyone else).
		s.streamSynthesize(ctx, w, synth, spec, req, events)
		return
	}

	// Single-flight: concurrent identical requests share one synthesis.
	// An injected fault downgrades to solo execution — dedup is an
	// optimisation, never a correctness dependency.
	if faultinject.Check(ctx, faultinject.OpSingleFlight) != nil {
		res, err := s.runAdmitted(ctx, func(runCtx context.Context) (*punt.Result, error) {
			return s.synthesize(runCtx, synth, spec, req)
		})
		s.respond(w, req, false, res, err)
		return
	}

	key := flightKey(synth, spec, req)
	f, synthCtx, leader := s.flights.join(ctx, key, s.cfg.MaxSynthTime)
	defer s.flights.leave(key, f)
	if leader {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Last-line recover, mirroring the portfolio contender's: panics
			// inside the synthesis are already turned into KindPanic
			// diagnostics by the facade's central dispatch, so this only
			// catches the flight bookkeeping around it — and a panic there
			// must fail this flight's waiters, never the whole daemon.
			completed := false
			defer func() {
				if p := recover(); p != nil && !completed {
					s.flights.complete(key, f, nil, fmt.Errorf("internal panic during synthesis flight: %v", p))
				}
			}()
			res, err := s.runAdmitted(synthCtx, func(runCtx context.Context) (*punt.Result, error) {
				return s.synthesize(runCtx, synth, spec, req)
			})
			completed = true
			s.flights.complete(key, f, res, err)
		}()
	} else {
		s.joined.Add(1)
	}
	select {
	case <-f.done:
		s.respond(w, req, false, f.res, f.err)
	case <-ctx.Done():
		// Client gone: nothing to write.  The deferred leave withdraws our
		// interest; the synthesis continues only while other waiters remain.
	}
}

// load parses the request's specification under the request context, capped
// by MaxSynthTime.  A spec without .initial_state builds its unfolding
// segment while loading: that is engine work, so it waits for a synthesis
// slot like a synthesis does, and MaxConcurrent bounds it.  A spec with the
// directive loads before admission, so warm hits stay cheap.  A parse
// failure is the request's fault (400), though a malformed spec without the
// directive is only parsed once it holds a slot, so under overload it gets
// 429 first; a segment that cannot be built fails
// the way its synthesis would (not safe, inconsistent, limit, or canceled
// like a cancelled synthesis).
func (s *Server) load(ctx context.Context, text string) (*punt.Spec, error) {
	if stg.DeclaresInitialState(text) {
		return s.loadNow(ctx, text)
	}
	var spec *punt.Spec
	_, err := s.runAdmitted(ctx, func(ctx context.Context) (*punt.Result, error) {
		var err error
		spec, err = s.loadNow(ctx, text)
		return nil, err
	})
	return spec, err
}

func (s *Server) loadNow(ctx context.Context, text string) (*punt.Spec, error) {
	lctx, cancel := context.WithTimeout(ctx, s.cfg.MaxSynthTime)
	defer cancel()
	spec, err := punt.LoadContext(lctx, strings.NewReader(text))
	var d *punt.Diagnostic
	if errors.As(err, &d) && d.Kind == punt.KindParse {
		return nil, &parseError{err}
	}
	return spec, err
}

// durRingSize is how many recent synthesis durations feed the Retry-After
// median.  Small on purpose: overload hints should track the current load
// mix, not the server's lifetime average.
const durRingSize = 32

// observeSynthesis records one synthesis wall-clock time (success or failure
// — either way it occupied a slot for that long).
func (s *Server) observeSynthesis(d time.Duration) {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	s.durRing[s.durNext] = d
	s.durNext = (s.durNext + 1) % durRingSize
	if s.durLen < durRingSize {
		s.durLen++
	}
}

// retryAfterSeconds derives the overload retry hint: the median observed
// synthesis time, scaled by how many syntheses stand between the rejected
// request and a free slot (everything queued, everything in flight, and
// itself), divided across the slot pool.  Clamped to [1s, 60s]; with no
// observations yet it falls back to 1.
func (s *Server) retryAfterSeconds() int {
	s.durMu.Lock()
	n := s.durLen
	buf := make([]time.Duration, n)
	copy(buf, s.durRing[:n])
	s.durMu.Unlock()
	if n == 0 {
		return 1
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	median := buf[n/2]
	ahead := int(s.queued.Load()) + len(s.sem) + 1
	est := time.Duration(float64(median) * float64(ahead) / float64(s.cfg.MaxConcurrent))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// runAdmitted runs fn under admission control: a bounded slot pool with a
// bounded wait queue.  Requests beyond both bounds fail with an overload
// rejection (a 429 on the wire) whose Retry-After reflects the current load.
func (s *Server) runAdmitted(ctx context.Context, fn func(context.Context) (*punt.Result, error)) (*punt.Result, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// No free slot: wait in the bounded queue.
		if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.rejected.Add(1)
			return nil, &overloadedError{RetryAfter: s.retryAfterSeconds()}
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	defer func() { <-s.sem }()
	return fn(ctx)
}

// synthesize runs one synthesis (plus optional verification) and keeps the
// error counters.
func (s *Server) synthesize(ctx context.Context, synth *punt.Synthesizer, spec *punt.Spec, req Request) (*punt.Result, error) {
	s.syntheses.Add(1)
	start := time.Now()
	defer func() { s.observeSynthesis(time.Since(start)) }()
	res, _, err := req.Synthesize(ctx, synth, spec)
	if err != nil {
		s.errs.Add(1)
	}
	return res, err
}

// streamSynthesize serves the newline-delimited JSON variant: progress lines
// while the synthesis runs, one result or error line to finish.
func (s *Server) streamSynthesize(ctx context.Context, w http.ResponseWriter, synth *punt.Synthesizer, spec *punt.Spec, req Request, events <-chan punt.Progress) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	// Commit the response immediately: a streaming client must see headers
	// (and start reading lines) while the synthesis is still running, even
	// before the first progress event exists.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)

	type outcome struct {
		res *punt.Result
		err error
	}
	done := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Same last-line recover as the single-flight leader: the stream's
		// consumer below must always receive an outcome, and a bookkeeping
		// panic must cost one request, not the daemon.
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("internal panic during synthesis: %v", p)}
			}
		}()
		res, err := s.runAdmitted(ctx, func(runCtx context.Context) (*punt.Result, error) {
			return s.synthesize(runCtx, synth, spec, req)
		})
		done <- outcome{res, err}
	}()

	writeLine := func(line streamLine) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		select {
		//puntlint:ignore ctxdiscipline the done arm below always fires — runAdmitted honours ctx — and events must keep draining after a disconnect so the progress callback never blocks
		case p := <-events:
			if !writeLine(streamLine{Progress: &p}) {
				// Client gone; ctx cancellation is tearing the synthesis
				// down.  Keep draining events until it finishes so the
				// progress callback never blocks.
				continue
			}
		//puntlint:ignore ctxdiscipline this arm is the escape hatch itself: the goroutine above always sends an outcome, under cancellation included
		case out := <-done:
			if out.err != nil {
				body := errorBody(out.err)
				writeLine(streamLine{Error: &body})
				return
			}
			blob, err := punt.EncodeResult(out.res)
			if err != nil {
				body := errorBody(err)
				writeLine(streamLine{Error: &body})
				return
			}
			writeLine(streamLine{Result: blob})
			return
		}
	}
}

// streamLine is one line of the streaming response: exactly one field set.
type streamLine struct {
	Progress *punt.Progress  `json:"progress,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    *ErrorBody      `json:"error,omitempty"`
}

// respond writes the terminal response for a non-streaming request (or the
// warm-hit short-circuit of a streaming one).
func (s *Server) respond(w http.ResponseWriter, req Request, stream bool, res *punt.Result, err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return // client gone
		}
		if stream {
			w.Header().Set("Content-Type", "application/x-ndjson")
			body := errorBody(err)
			_ = json.NewEncoder(w).Encode(streamLine{Error: &body})
			return
		}
		writeError(w, err)
		return
	}
	blob, encErr := punt.EncodeResult(res)
	if encErr != nil {
		writeError(w, encErr)
		return
	}
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = json.NewEncoder(w).Encode(streamLine{Result: blob})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Stats.Cached {
		w.Header().Set("X-Punt-Cache", "hit")
	} else {
		w.Header().Set("X-Punt-Cache", "miss")
	}
	_, _ = w.Write(append(blob, '\n'))
}

// flightKey names one synthesis for single-flight dedup: the cache key (spec
// hash × result-affecting configuration) extended with the budget and ladder
// fields the cache key deliberately omits — two requests that differ only in
// budget must not share a flight, or one request's tight deadline could fail
// the other's generous one.
func flightKey(synth *punt.Synthesizer, spec *punt.Spec, req Request) string {
	return fmt.Sprintf("%s|dl=%d|mb=%d|fb=%t|vf=%t",
		synth.CacheKey(spec), req.DeadlineMS, req.MemBudget, req.Fallback, req.Verify)
}
