// Command puntd serves punt synthesis over HTTP: a synthesis-as-a-service
// daemon with a persistent, shareable result store.
//
// Usage:
//
//	puntd [-addr HOST:PORT] [-store DIR] [-cache-size N]
//	      [-max-concurrent N] [-max-queue N] [-max-synth-time D]
//
// The daemon exposes the full punt facade over JSON:
//
//	POST /v1/synthesize  submit a .g specification plus configuration;
//	                     responds with the result document, or streams
//	                     progress as newline-delimited JSON with
//	                     "stream": true
//	GET  /v1/stats       request and per-cache-tier counters
//	GET  /healthz        liveness probe
//
// With -store the result cache is tiered: an in-memory LRU in front of a
// content-addressed on-disk store, so warm hits survive restarts, and any
// number of replicas pointing at the same directory serve each other's
// results.  Without it the cache is in-memory only.
//
// Admission control bounds cold synthesis work (-max-concurrent slots plus a
// -max-queue deep wait queue; beyond that requests are answered 429 with a
// Retry-After header), identical concurrent requests are deduplicated into a
// single synthesis, and cache hits are answered before admission, so repeat
// traffic is never queued.  A spec without .initial_state is loaded under a
// slot, because loading it builds its unfolding segment.
//
// On SIGINT/SIGTERM the daemon stops accepting requests, drains in-flight
// syntheses and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"punt"
	"punt/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point; it blocks until the daemon shuts down
// and returns the process exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("puntd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8747", "listen address")
	store := fs.String("store", "", "persistent result store directory (empty = in-memory cache only)")
	cacheSize := fs.Int("cache-size", 0, "in-memory cache entry bound (0 = default)")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent synthesis slots (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "requests allowed to wait for a slot (0 = twice the slots, negative = none)")
	maxSynthTime := fs.Duration("max-synth-time", 0, "hard per-synthesis wall-clock ceiling (0 = 2m)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: puntd [flags]")
		fs.PrintDefaults()
		return 2
	}

	var cache punt.Cache = punt.NewLRU(*cacheSize)
	if *store != "" {
		disk, err := punt.NewDiskCache(*store)
		if err != nil {
			fmt.Fprintln(stderr, "puntd:", err)
			return 1
		}
		cache = punt.NewTiered(punt.NewLRU(*cacheSize), disk)
		fmt.Fprintf(stderr, "puntd: result store at %s\n", disk.Dir())
	}
	srv := server.New(server.Config{
		Cache:         cache,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		MaxSynthTime:  *maxSynthTime,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "puntd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "puntd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "puntd:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	fmt.Fprintln(stderr, "puntd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "puntd: shutdown:", err)
	}
	// Detached work (single-flight leaders whose clients hung up) may still
	// be writing the shared store: wait for it.
	if err := srv.Drain(sctx); err != nil {
		fmt.Fprintln(stderr, "puntd: drain:", err)
		return 1
	}
	fmt.Fprintln(stderr, "puntd: drained")
	return 0
}
