package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"punt"
)

// FuzzRequest decodes mutated request bodies the way the handler does (JSON
// with unknown fields rejected), then derives the options and the
// single-flight key.  None of it may panic, every Options error is a usage
// error, and the key always starts with the spec's cache key.  Run with:
//
//	go test -run=NONE -fuzz=FuzzRequest -fuzztime=30s ./server
func FuzzRequest(f *testing.F) {
	for _, req := range []Request{
		{Spec: punt.Fig1().Text()},
		{Engine: "portfolio", Arch: "rs-latch", Exact: true, MaxEvents: 10, ResolveCSC: true, MaxCSCSignals: 2, DeadlineMS: 50, MemBudget: 1 << 20, Fallback: true, Verify: true, Stream: true},
		{Engine: "warp-drive", Arch: "tubes"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"spec":"","bogus":1}`))
	f.Add([]byte(`{"deadline_ms":-1,"max_states":-5}`))
	spec := punt.Fig1()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		opts, err := req.Options()
		if err != nil {
			if !errors.As(err, new(*usageError)) {
				t.Fatalf("Options error is not a usage error: %v", err)
			}
			return
		}
		synth := punt.New(opts...)
		if key := flightKey(synth, spec, req); !strings.HasPrefix(key, synth.CacheKey(spec)+"|") {
			t.Fatalf("flight key %q does not extend the cache key", key)
		}
	})
}
