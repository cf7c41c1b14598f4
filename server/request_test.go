package server

import (
	"context"
	"flag"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"punt"
	"punt/gates"
	"punt/internal/faultinject"
)

// fig1Hash is the content hash of punt.Fig1(), the specification every key
// below is derived from.
const fig1Hash = "0702e02073331f278dcbbce2ac17abeb08848ba0838b990a4ee15d30251712e0"

// TestCacheKeysPinned pins Synthesizer.CacheKey to the strings earlier
// releases computed for the same configurations, so existing result stores
// stay warm: a changed key silently turns every stored entry into a miss.
func TestCacheKeysPinned(t *testing.T) {
	spec := punt.Fig1()
	for _, tc := range []struct {
		name string
		opts []punt.Option
		want string // key after the specification hash
	}{
		{"default", nil, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"unfolding", []punt.Option{punt.WithEngine(punt.Unfolding)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"explicit", []punt.Option{punt.WithEngine(punt.Explicit)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=explicit"},
		{"symbolic", []punt.Option{punt.WithEngine(punt.Symbolic)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=symbolic"},
		{"decompose", []punt.Option{punt.WithEngine(punt.Decompose)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=decompose"},
		{"portfolio", []punt.Option{punt.WithEngine(punt.Portfolio)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=portfolio(unfolding,explicit,symbolic)"},
		{"contenders", []punt.Option{punt.WithContenders(punt.Explicit, punt.Unfolding)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=portfolio(explicit,unfolding)"},
		{"decompose-inner", []punt.Option{punt.WithEngine(punt.Decompose), punt.WithDecomposeInner(punt.Explicit)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=explicit|sel=decompose"},
		{"exact", []punt.Option{punt.WithMode(punt.Exact)}, "|mode=1|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"resolve-csc", []punt.Option{punt.WithResolveCSC(3)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=3|decomp=|sel=unfolding"},
		{"resolve-csc-default", []punt.Option{punt.WithResolveCSC(0)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=8|decomp=|sel=unfolding"},
		{"complex-gate", []punt.Option{punt.WithArch(gates.ComplexGate)}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"standard-c", []punt.Option{punt.WithArch(gates.StandardC)}, "|mode=0|arch=1|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"rs-latch", []punt.Option{punt.WithArch(gates.RSLatch)}, "|mode=0|arch=2|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding"},
		{"bounds", []punt.Option{punt.WithEngine(punt.Explicit), punt.WithMaxEvents(100), punt.WithMaxStates(50), punt.WithMaxNodes(70)}, "|mode=0|arch=0|me=100|ms=50|mn=70|rcsc=0|decomp=|sel=explicit"},
	} {
		if got := punt.New(tc.opts...).CacheKey(spec); got != fig1Hash+tc.want {
			t.Errorf("%s: CacheKey = %q, want %q", tc.name, got, fig1Hash+tc.want)
		}
	}
}

// TestFlightKeysPinned pins the daemon's single-flight keys of the same
// request vocabulary, derived through Request.Options as the handler does.
func TestFlightKeysPinned(t *testing.T) {
	spec := punt.Fig1()
	for _, tc := range []struct {
		name string
		req  Request
		want string // key after the specification hash
	}{
		{"default", Request{}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding|dl=0|mb=0|fb=false|vf=false"},
		{"explicit", Request{Engine: "explicit"}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=explicit|dl=0|mb=0|fb=false|vf=false"},
		{"symbolic", Request{Engine: "symbolic"}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=symbolic|dl=0|mb=0|fb=false|vf=false"},
		{"decompose", Request{Engine: "decompose"}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=decompose|dl=0|mb=0|fb=false|vf=false"},
		{"portfolio", Request{Engine: "portfolio"}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=portfolio(unfolding,explicit,symbolic)|dl=0|mb=0|fb=false|vf=false"},
		{"exact-standard-c", Request{Exact: true, Arch: "standard-c"}, "|mode=1|arch=1|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding|dl=0|mb=0|fb=false|vf=false"},
		{"rs-latch", Request{Arch: "rs-latch"}, "|mode=0|arch=2|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding|dl=0|mb=0|fb=false|vf=false"},
		{"resolve", Request{ResolveCSC: true, MaxCSCSignals: 2}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=2|decomp=|sel=unfolding|dl=0|mb=0|fb=false|vf=false"},
		{"resolve-default", Request{ResolveCSC: true}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=8|decomp=|sel=unfolding|dl=0|mb=0|fb=false|vf=false"},
		{"bounds", Request{Engine: "explicit", MaxEvents: 100, MaxStates: 50, MaxNodes: 70}, "|mode=0|arch=0|me=100|ms=50|mn=70|rcsc=0|decomp=|sel=explicit|dl=0|mb=0|fb=false|vf=false"},
		{"budgets", Request{DeadlineMS: 1500, MemBudget: 1 << 20, Fallback: true, Verify: true}, "|mode=0|arch=0|me=0|ms=0|mn=0|rcsc=0|decomp=|sel=unfolding|dl=1500|mb=1048576|fb=true|vf=true"},
	} {
		opts, err := tc.req.Options()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := flightKey(punt.New(opts...), spec, tc.req); got != fig1Hash+tc.want {
			t.Errorf("%s: flightKey = %q, want %q", tc.name, got, fig1Hash+tc.want)
		}
	}
}

// TestRegisterFlagsMatchesJSON proves the flag set and the JSON body are one
// vocabulary: parsing flags yields the request the JSON names describe.
func TestRegisterFlagsMatchesJSON(t *testing.T) {
	var req Request
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	req.RegisterFlags(fs)
	err := fs.Parse([]string{"-engine", "symbolic", "-arch", "rs-latch", "-exact", "-max-events", "5",
		"-max-states", "6", "-max-nodes", "7", "-resolve-csc", "-max-csc-signals", "2",
		"-deadline", "1500us", "-mem-budget", "9", "-fallback", "-verify"})
	if err != nil {
		t.Fatal(err)
	}
	want := Request{Engine: "symbolic", Arch: "rs-latch", Exact: true, MaxEvents: 5, MaxStates: 6, MaxNodes: 7,
		ResolveCSC: true, MaxCSCSignals: 2, DeadlineMS: 2, MemBudget: 9, Fallback: true, Verify: true}
	if req != want {
		t.Errorf("flags parsed to %+v, want %+v", req, want)
	}
	// Every field but the specification and the response format has a flag.
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 12 {
		t.Errorf("RegisterFlags defined %d flags, want 12", n)
	}
	if help := fs.Lookup("engine").Usage; !strings.Contains(help, "decompose") || !strings.Contains(help, "portfolio") {
		t.Errorf("-engine help does not list the engines: %q", help)
	}
}

// TestFallbackLadderOverridesEngine runs the built-in ladder under an
// explicit engine whose state bound is too small: the last rung must switch
// to the unfolding engine and succeed degraded.
func TestFallbackLadderOverridesEngine(t *testing.T) {
	spec, err := punt.LoadFile("../testdata/twoloops.g")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Engine: "explicit", MaxStates: 2, Fallback: true}
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := punt.New(opts...).Synthesize(context.Background(), spec)
	if err != nil {
		t.Fatalf("the ladder did not degrade: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("result not marked degraded")
	}
	attempts := res.Stats.Attempts
	if last := attempts[len(attempts)-1]; last.Step != "unfolding-small" || last.Backend != "unfolding" || last.Outcome != "ok" {
		t.Errorf("attempts = %v, want the last one to be unfolding-small[unfolding]=ok", attempts)
	}
}

// TestDecomposedResultStored posts a specification the decompose engine
// actually factors: the result must encode (200), land in the disk tier, and
// come back as a warm hit through a fresh tiered cache over the same store.
func TestDecomposedResultStored(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	dir := t.TempDir()
	req := Request{Spec: mustReadSpecText(t, "../testdata/twoloops.g"), Engine: punt.Decompose}
	var cold *punt.Result
	for _, want := range []string{"miss", "hit"} {
		disk, err := punt.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Cache: punt.NewTiered(punt.NewLRU(0), disk)})
		ts := httptest.NewServer(srv.Handler())
		resp, data := post(t, ts.Client(), ts.URL, req)
		res := wantResult(t, resp, data)
		ts.Close()
		if got := resp.Header.Get("X-Punt-Cache"); got != want {
			t.Errorf("X-Punt-Cache = %q, want %q", got, want)
		}
		if !res.Decomposed() || res.Stats.Engine != punt.Decompose {
			t.Errorf("stats = %v, want a decomposed run", &res.Stats)
		}
		if cold == nil {
			cold = res
		} else if res.Eqn() != cold.Eqn() {
			t.Error("the stored result changed the implementation")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}
