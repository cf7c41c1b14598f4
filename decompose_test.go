package punt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/bitvec"
	"punt/internal/petri"
	"punt/internal/stg"
)

// unionSpecs builds the disjoint union of several specifications in one STG:
// every part's signals, places and transitions are re-added under a "uN_"
// prefix, markings and initial states concatenated.  The result is exactly
// the kind of multi-component specification decompose.Split factors.
func unionSpecs(t *testing.T, name string, parts ...*Spec) *Spec {
	t.Helper()
	g := stg.New(name)
	var bits []bool
	for pi, part := range parts {
		src := part.g
		prefix := fmt.Sprintf("u%d_", pi)
		net := src.Net()
		sigMap := make([]int, src.NumSignals())
		for s := 0; s < src.NumSignals(); s++ {
			sig := src.Signal(s)
			sigMap[s] = g.AddSignal(prefix+sig.Name, sig.Kind)
		}
		placeMap := make([]petri.PlaceID, net.NumPlaces())
		for p := 0; p < net.NumPlaces(); p++ {
			placeMap[p] = g.AddPlace(prefix + net.PlaceName(petri.PlaceID(p)))
		}
		for ti := 0; ti < net.NumTransitions(); ti++ {
			id := petri.TransitionID(ti)
			l := src.Label(id)
			var nt petri.TransitionID
			if l.IsDummy {
				nt = g.AddDummyTransition(prefix + l.DummyName)
			} else {
				nt = g.AddTransition(sigMap[l.Signal], l.Dir)
			}
			for _, p := range net.Pre(id) {
				g.AddArcPT(placeMap[p], nt)
			}
			for _, p := range net.Post(id) {
				g.AddArcTP(nt, placeMap[p])
			}
		}
		initial := net.Initial()
		for p := 0; p < net.NumPlaces(); p++ {
			if initial.Marked(petri.PlaceID(p)) {
				g.MarkInitially(placeMap[p])
			}
		}
		st := src.InitialState()
		for s := 0; s < src.NumSignals(); s++ {
			bits = append(bits, st.Get(s))
		}
	}
	g.SetInitialState(bitvec.FromBools(bits))
	spec, err := wrapSpec(context.Background(), g)
	if err != nil {
		t.Fatalf("union spec %s: %v", name, err)
	}
	return spec
}

// TestDecomposeCounterflow is the tentpole's acceptance path: the counterflow
// pipeline — two independent Muller pipelines in one net, 2^34 monolithic
// states — factors into two components, synthesizes compositionally, and the
// recombined circuit carries the per-component breakdown.  (The closed-loop
// verification against the full spec runs inside the backend before the
// result is returned; Verify here re-checks it through the public facade.)
func TestDecomposeCounterflow(t *testing.T) {
	ctx := context.Background()
	spec := CounterflowPipeline()
	res, err := New(WithEngine(Decompose)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatalf("decompose synthesis: %v", err)
	}
	if !res.Decomposed() {
		t.Fatal("counterflow must decompose, result reports monolithic")
	}
	if res.Stats.Backend != "decompose" || res.Stats.Engine != Decompose {
		t.Errorf("stats identity = %q/%v, want decompose", res.Stats.Backend, res.Stats.Engine)
	}
	if len(res.Stats.Components) != 2 {
		t.Fatalf("want 2 components, got %d", len(res.Stats.Components))
	}
	for _, c := range res.Stats.Components {
		if c.Backend != "unfolding" {
			t.Errorf("component %s ran %q, want the default inner engine", c.Name, c.Backend)
		}
		if c.Outputs == 0 || c.Literals == 0 {
			t.Errorf("component %s contributed no gates (outputs=%d literals=%d)", c.Name, c.Outputs, c.Literals)
		}
	}
	if res.Decomposition != nil {
		t.Error("a factored run must not carry the KindIndivisible record")
	}
	if _, err := Verify(ctx, spec, res); err != nil {
		t.Fatalf("recombined circuit fails facade Verify: %v", err)
	}
	if !strings.Contains(res.Stats.String(), "decomposed=2[") {
		t.Errorf("Stats.String misses the component breakdown: %s", res.Stats.String())
	}
	// The split must not change the circuit: the recombined result prints
	// exactly what the monolithic unfolding engine prints.
	mono, err := New(WithEngine(Unfolding)).Synthesize(ctx, spec)
	if err != nil {
		t.Fatalf("monolithic synthesis: %v", err)
	}
	if res.Eqn() != mono.Eqn() {
		t.Errorf("decompose equations differ from monolithic:\n%s\nvs\n%s", res.Eqn(), mono.Eqn())
	}
	if res.Verilog() != mono.Verilog() {
		t.Error("decompose Verilog differs from monolithic")
	}
}

// TestDecomposeIndivisibleByteIdentical pins the fallthrough contract on
// every Table 1 spec: an indivisible specification through the decompose
// backend produces output byte-identical to the inner engine run directly, at
// every worker count, and records the fallthrough as a KindIndivisible
// informational.
func TestDecomposeIndivisibleByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, it := range Table1() {
		mono, err := New(WithEngine(Unfolding)).Synthesize(ctx, it.Spec)
		if err != nil {
			t.Fatalf("%s: monolithic synthesis: %v", it.Name, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := New(WithEngine(Decompose), WithWorkers(workers)).Synthesize(ctx, it.Spec)
			if err != nil {
				t.Fatalf("%s: decompose synthesis (workers=%d): %v", it.Name, workers, err)
			}
			if res.Decomposed() {
				t.Fatalf("%s: Table 1 specs are indivisible, result reports a split", it.Name)
			}
			if res.Decomposition == nil || res.Decomposition.Kind != KindIndivisible {
				t.Fatalf("%s: fallthrough must be recorded as KindIndivisible, got %+v", it.Name, res.Decomposition)
			}
			if res.Decomposition.Signal != "unfolding" {
				t.Errorf("%s: fallthrough records inner %q, want unfolding", it.Name, res.Decomposition.Signal)
			}
			if res.Stats.Backend != "decompose" {
				t.Errorf("%s: Stats.Backend = %q, want decompose (the selected backend)", it.Name, res.Stats.Backend)
			}
			if res.Eqn() != mono.Eqn() || res.Verilog() != mono.Verilog() {
				t.Errorf("%s: fallthrough output differs from the inner engine at workers=%d", it.Name, workers)
			}
		}
	}
}

// TestDecomposeWorkerDeterminism: a split synthesis is byte-identical across
// worker counts — components are recombined in plan order, never in
// completion order.
func TestDecomposeWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	spec := CounterflowPipeline()
	var eqn string
	for i, workers := range []int{1, 2, 8} {
		res, err := New(WithEngine(Decompose), WithWorkers(workers)).Synthesize(ctx, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			eqn = res.Eqn()
		} else if res.Eqn() != eqn {
			t.Fatalf("workers=%d: recombined output differs from workers=1", workers)
		}
	}
}

// TestDecomposeInnerEngine drives the components through the explicit
// baseline and rejects the recursive inner engines.
func TestDecomposeInnerEngine(t *testing.T) {
	ctx := context.Background()
	// A small product: the full counterflow's 131k-state halves are exactly
	// what the explicit baseline cannot chew through in test time.
	res, err := New(WithEngine(Decompose), WithDecomposeInner("explicit")).
		Synthesize(ctx, mustWrap(benchgen.Product(3)))
	if err != nil {
		t.Fatalf("decompose over explicit: %v", err)
	}
	for _, c := range res.Stats.Components {
		if c.Backend != "explicit" {
			t.Errorf("component %s ran %q, want explicit", c.Name, c.Backend)
		}
		if c.States == 0 {
			t.Errorf("component %s reports no states from the explicit baseline", c.Name)
		}
	}
	for _, bad := range []string{"decompose", "portfolio"} {
		if _, err := New(WithEngine(Decompose), WithDecomposeInner(bad)).Synthesize(ctx, Fig1()); err == nil {
			t.Errorf("inner engine %q must be rejected", bad)
		}
	}
}

// TestDecomposeComponentErrorPropagates: a CSC conflict inside one component
// of a sound split is a genuine conflict of the whole specification and must
// surface as ErrCSC, not be masked by the compositional path — and the
// facade's WithResolveCSC repair must still work through the decompose
// backend, re-factoring the repaired specification on the retry.
func TestDecomposeComponentErrorPropagates(t *testing.T) {
	ctx := context.Background()
	conflicted, err := LoadFile("testdata/csc.g")
	if err != nil {
		t.Fatal(err)
	}
	combined := unionSpecs(t, "handshake+csc", Handshake(), conflicted)

	_, err = New(WithEngine(Decompose)).Synthesize(ctx, combined)
	if !errors.Is(err, ErrCSC) {
		t.Fatalf("component CSC conflict must propagate as ErrCSC, got %v", err)
	}

	res, err := New(WithEngine(Decompose), WithResolveCSC(0)).Synthesize(ctx, combined)
	if err != nil {
		t.Fatalf("WithResolveCSC through decompose: %v", err)
	}
	if !res.Resolved() {
		t.Fatal("repaired result must carry the Resolution record")
	}
	if !res.Decomposed() {
		t.Fatal("the repaired retry must still synthesize compositionally")
	}
}

// TestPortfolioDecomposeAttribution is the satellite regression: in a
// decompose-vs-explicit race the top-level contender list is exactly the
// raced pair, and the decompose winner's per-component runs roll up under its
// own entry as Contender.Sub — never as phantom top-level contenders.
func TestPortfolioDecomposeAttribution(t *testing.T) {
	ctx := context.Background()
	// WithWorkers(1) runs the contenders sequentially in order, so decompose
	// deterministically wins the race.
	res, err := New(WithContenders("decompose", "explicit"), WithWorkers(1)).
		Synthesize(ctx, CounterflowPipeline())
	if err != nil {
		t.Fatalf("portfolio race: %v", err)
	}
	if res.Stats.Backend != "decompose" {
		t.Fatalf("winner = %q, want decompose", res.Stats.Backend)
	}
	if len(res.Stats.Contenders) != 2 {
		t.Fatalf("top-level contenders = %d, want exactly the raced pair:\n%s",
			len(res.Stats.Contenders), res.Stats.String())
	}
	names := []string{res.Stats.Contenders[0].Engine, res.Stats.Contenders[1].Engine}
	if names[0] != "decompose" || names[1] != "explicit" {
		t.Fatalf("contender names = %v, want [decompose explicit]", names)
	}
	winner := res.Stats.Contenders[0]
	if !winner.Winner {
		t.Fatal("decompose entry not marked winner")
	}
	if len(winner.Sub) != 2 {
		t.Fatalf("decompose winner carries %d sub-entries, want its 2 component runs", len(winner.Sub))
	}
	for _, sub := range winner.Sub {
		if !strings.Contains(sub.Engine, "/unfolding") {
			t.Errorf("sub-entry %q does not attribute its inner engine", sub.Engine)
		}
		if sub.Winner {
			t.Errorf("sub-entry %q marked winner of a race it was never entered in", sub.Engine)
		}
	}
	// The rendering nests too.
	if s := res.Stats.String(); !strings.Contains(s, "(winner){") {
		t.Errorf("Stats.String does not nest the sub-breakdown: %s", s)
	}
}

// TestDecomposeDifferentialSplit cross-checks the compositional result
// state-by-state against the explicit oracle on a spec that actually splits
// (the small two-pipeline product stays within the oracle's reach, unlike the
// full counterflow).
func TestDecomposeDifferentialSplit(t *testing.T) {
	spec := mustWrap(benchgen.Product(3))
	rep, err := Differential(context.Background(), spec)
	if err != nil {
		t.Fatalf("differential: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("engines disagree on %s:\n%s", spec.Name(), rep)
	}
}

// TestDecomposeRandomSweep drives 100 random single-component specifications
// through the decompose fallthrough and byte-compares against the monolithic
// inner engine; oracle-rejected specs must be rejected by both paths alike.
func TestDecomposeRandomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep is long")
	}
	ctx := context.Background()
	mono := New(WithEngine(Unfolding))
	comp := New(WithEngine(Decompose), WithWorkers(4))
	for seed := int64(0); seed < 100; seed++ {
		g := benchgen.RandomSTG(seed, 4+int(seed%14))
		spec, err := wrapSpec(context.Background(), g)
		if err != nil {
			continue
		}
		rm, errM := mono.Synthesize(ctx, spec)
		rc, errC := comp.Synthesize(ctx, spec)
		if (errM == nil) != (errC == nil) {
			t.Fatalf("seed %d: monolithic err=%v, decompose err=%v", seed, errM, errC)
		}
		if errM != nil {
			continue
		}
		if rm.Eqn() != rc.Eqn() {
			t.Fatalf("seed %d: decompose output differs from monolithic", seed)
		}
	}
}
