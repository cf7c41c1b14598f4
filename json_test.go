package punt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"punt/gates"
)

// TestResultJSONRoundTrip proves the exported serializer round-trips a real
// synthesis result: marshal → unmarshal → marshal yields byte-identical
// documents (the stability the disk store and the HTTP API both rely on),
// and the decoded result is semantically equal to the original.
func TestResultJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		file string // specification; empty = Figure 1
		opts []Option
	}{
		{name: "unfolding"},
		{name: "explicit", opts: []Option{WithEngine(Explicit)}},
		{name: "standard-c", opts: []Option{WithArch(gates.StandardC)}},
		{name: "resolved", file: "testdata/csc.g", opts: []Option{WithResolveCSC(0)}},
		// A specification decompose actually factors: the result carries
		// the decompose engine and the per-component breakdown.
		{name: "decomposed", file: "testdata/twoloops.g", opts: []Option{WithEngine(Decompose)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Fig1()
			if tc.file != "" {
				var err error
				spec, err = LoadFile(tc.file)
				if err != nil {
					t.Fatalf("load %s: %v", tc.file, err)
				}
			}
			res, err := New(tc.opts...).Synthesize(context.Background(), spec)
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			if tc.name == "decomposed" && !res.Decomposed() {
				t.Fatal("twoloops was not factored")
			}
			blob, err := EncodeResult(res)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			back, err := DecodeResult(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got, want := back.Eqn(), res.Eqn(); got != want {
				t.Errorf("equations changed across the wire:\n got %q\nwant %q", got, want)
			}
			if got, want := back.Spec.Hash(), res.Spec.Hash(); got != want {
				t.Errorf("spec hash changed: got %s want %s", got, want)
			}
			if got, want := back.Stats.Engine, res.Stats.Engine; got != want {
				t.Errorf("engine changed: got %v want %v", got, want)
			}
			if back.Decomposed() != res.Decomposed() || len(back.Stats.Components) != len(res.Stats.Components) {
				t.Errorf("decomposition changed: got %v/%d want %v/%d", back.Decomposed(),
					len(back.Stats.Components), res.Decomposed(), len(res.Stats.Components))
			}
			if back.Resolved() != res.Resolved() {
				t.Errorf("Resolved() changed: got %v want %v", back.Resolved(), res.Resolved())
			}
			again, err := EncodeResult(back)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(blob, again) {
				t.Errorf("marshal → unmarshal → marshal is not byte-stable:\n first %s\nsecond %s", blob, again)
			}
		})
	}
}

// legacyResultDoc is a result document written before engines were named by
// registry string alone (Figure 1 through the explicit engine).  Disk stores
// filled by earlier daemons hold documents of exactly this shape.
const legacyResultDoc = `{"format":1,"spec":".model paper-fig1\n.inputs a c\n.outputs b\n.graph\na+ p2 p3\nb+ p7 p8\nb+/2 p5\nc+ p4\nc+/2 p6 p8\na- p7\nb- p1\nc- p9\np1 a+ c+\np2 b+/2\np3 c+/2\np4 b+\np5 a-\np6 a-\np7 c-\np8 c-\np9 b-\n.marking { p1 }\n.initial_state 000\n.end\n","spec_hash":"0702e02073331f278dcbbce2ac17abeb08848ba0838b990a4ee15d30251712e0","impl":{"name":"paper-fig1","signals":["a","b","c"],"gates":[{"signal":"b","arch":"complex-gate","cover":{"vars":3,"cubes":["1--","--1"]}}]},"stats":{"engine":"explicit","backend":"explicit","unf_time_ns":69629,"syn_time_ns":3763,"esp_time_ns":11994,"total_ns":90249,"states":8,"attempts":[{"backend":"explicit","outcome":"ok","elapsed_ns":98853}]}}`

// TestLegacyResultDocDecodes proves existing stores stay readable: the old
// document decodes, keeps its engine identity, and re-encodes byte-identically.
func TestLegacyResultDocDecodes(t *testing.T) {
	res, err := DecodeResult([]byte(legacyResultDoc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Stats.Engine != Explicit || res.Stats.Backend != Explicit || res.Stats.States != 8 {
		t.Errorf("stats = %+v, want the explicit engine over 8 states", res.Stats)
	}
	want, err := New(WithEngine(Explicit)).Synthesize(context.Background(), Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Eqn() != want.Eqn() {
		t.Errorf("decoded implementation:\n%s\nwant:\n%s", res.Eqn(), want.Eqn())
	}
	again, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != legacyResultDoc {
		t.Errorf("re-encoding changed the document:\n got %s\nwant %s", again, legacyResultDoc)
	}
}

// TestPEParallelResultDocDecodes proves that format-1 documents written while
// Stats still carried the pe_parallel flag stay readable, so stored cache
// entries stay warm: the unknown field is ignored, the rest of the stats
// survive, and the re-encoded document (without the flag) round-trips
// byte-identically.
func TestPEParallelResultDocDecodes(t *testing.T) {
	doc := strings.Replace(legacyResultDoc, `"states":8,`, `"states":8,"workers":2,"pe_parallel":true,`, 1)
	if !strings.Contains(doc, `"pe_parallel":true`) {
		t.Fatal("fixture does not carry pe_parallel")
	}
	res, err := DecodeResult([]byte(doc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Stats.Engine != Explicit || res.Stats.States != 8 || res.Stats.Workers != 2 {
		t.Errorf("stats = %+v, want the explicit engine over 8 states at 2 workers", res.Stats)
	}
	again, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(again), "pe_parallel") || !strings.Contains(string(again), `"workers":2`) {
		t.Errorf("re-encoded document: %s", again)
	}
	back, err := DecodeResult(again)
	if err != nil {
		t.Fatalf("decode of the re-encoded document: %v", err)
	}
	if back.Eqn() != res.Eqn() {
		t.Errorf("equations changed across the round trip:\n got %q\nwant %q", back.Eqn(), res.Eqn())
	}
	third, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, third) {
		t.Errorf("round trip is not byte-stable:\n first %s\nsecond %s", again, third)
	}
}

// TestResultJSONRejectsCorruption exercises the decode-side validation: a
// tampered document must fail, never yield a half-usable Result.
func TestResultJSONRejectsCorruption(t *testing.T) {
	res, err := New().Synthesize(context.Background(), Fig1())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeResult(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated document decoded")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := bytes.Replace(blob, []byte(`"format":1`), []byte(`"format":99`), 1)
		if _, err := DecodeResult(bad); err == nil || !strings.Contains(err.Error(), "format") {
			t.Fatalf("wrong-version document decoded: %v", err)
		}
	})
	t.Run("hash mismatch", func(t *testing.T) {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(blob, &raw); err != nil {
			t.Fatal(err)
		}
		raw["spec_hash"] = json.RawMessage(`"` + strings.Repeat("ab", 32) + `"`)
		bad, _ := json.Marshal(raw)
		if _, err := DecodeResult(bad); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
			t.Fatalf("hash-tampered document decoded: %v", err)
		}
	})
	t.Run("no initial state", func(t *testing.T) {
		// Loading a spec without .initial_state builds its segment; a
		// result document always carries the state, so decoding refuses
		// one without it instead of doing that work.
		var w resultWire
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		i := strings.Index(w.Spec, ".initial_state")
		j := i + strings.IndexByte(w.Spec[i:], '\n') + 1
		w.Spec, w.SpecHash = w.Spec[:i]+w.Spec[j:], ""
		bad, _ := json.Marshal(w)
		if _, err := DecodeResult(bad); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), ".initial_state") {
			t.Fatalf("document without an initial state: %v", err)
		}
	})
	t.Run("no implementation", func(t *testing.T) {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(blob, &raw); err != nil {
			t.Fatal(err)
		}
		delete(raw, "impl")
		bad, _ := json.Marshal(raw)
		if _, err := DecodeResult(bad); err == nil {
			t.Fatal("implementation-less document decoded")
		}
	})
	t.Run("mangled cover", func(t *testing.T) {
		bad := bytes.Replace(blob, []byte(`"cubes":["`), []byte(`"cubes":["x`), 1)
		if _, err := DecodeResult(bad); err == nil {
			t.Fatal("cover-mangled document decoded")
		}
	})
}

// TestDiagnosticJSONRoundTrip proves structured errors survive the wire with
// their classification intact: a decoded diagnostic still matches the
// unified sentinels through errors.Is.
func TestDiagnosticJSONRoundTrip(t *testing.T) {
	d := &Diagnostic{
		Op:     "synthesize",
		Spec:   "csc-example",
		Kind:   KindCSC,
		Signal: "out1",
		Trace:  []string{"state 0101", "state 0101'"},
		Attempts: []Attempt{
			{Backend: "unfolding", Outcome: "CSC conflict", Elapsed: 12 * time.Millisecond},
		},
		Err: errors.New("boom"),
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back := new(Diagnostic)
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !errors.Is(back, ErrCSC) {
		t.Error("decoded diagnostic no longer matches ErrCSC")
	}
	if back.Signal != d.Signal || back.Op != d.Op || len(back.Attempts) != 1 {
		t.Errorf("structure lost: %+v", back)
	}
	if !strings.Contains(back.Error(), "boom") {
		t.Errorf("underlying message lost: %q", back.Error())
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Errorf("diagnostic marshal is not byte-stable:\n first %s\nsecond %s", blob, again)
	}
}

// TestContenderJSONRoundTrip covers the portfolio breakdown, whose error
// field needs explicit wire handling.
func TestContenderJSONRoundTrip(t *testing.T) {
	cs := []Contender{
		{Engine: "unfolding", Winner: true, Started: true, Elapsed: time.Millisecond},
		{Engine: "explicit", Started: true, Elapsed: 2 * time.Millisecond, Err: errors.New("canceled")},
		{Engine: "symbolic"},
	}
	blob, err := json.Marshal(cs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []Contender
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back[1].Err == nil || back[1].Err.Error() != "canceled" {
		t.Errorf("contender error lost: %+v", back[1])
	}
	again, _ := json.Marshal(back)
	if !bytes.Equal(blob, again) {
		t.Errorf("contender marshal is not byte-stable")
	}
}
