package punt_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"punt"
	"punt/gates"
)

// The facade tests exercise the package exactly as an external module would:
// through the exported API only.

func TestQuickstartThroughFacade(t *testing.T) {
	res, err := punt.New().Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Eqn(), "b = a + c") {
		t.Errorf("Figure 1 cover changed:\n%s", res.Eqn())
	}
	if res.Stats.Engine != punt.Unfolding || res.Stats.Events != 8 || res.Stats.Cutoffs != 2 {
		t.Errorf("unexpected stats: %+v", res.Stats)
	}
	if g, ok := res.Gate("b"); !ok || g.Literals() != 2 {
		t.Errorf("gate b: ok=%v gate=%+v", ok, g)
	}
	if res.Literals() != 2 {
		t.Errorf("literals = %d", res.Literals())
	}
}

func TestLoadFileAndParseAgree(t *testing.T) {
	fromFile, err := punt.LoadFile("testdata/fig1.g")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("testdata/fig1.g")
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := punt.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := punt.Load(strings.NewReader(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*punt.Spec{fromFile, fromText, fromReader} {
		if spec.Name() != "paper-fig1" || spec.NumSignals() != 3 {
			t.Fatalf("spec = %s with %d signals", spec.Name(), spec.NumSignals())
		}
	}
	// The formatter round-trips.
	again, err := punt.Parse(fromFile.Text())
	if err != nil {
		t.Fatalf("Text() does not re-parse: %v", err)
	}
	if again.Text() != fromFile.Text() {
		t.Error("Text() is not a fixpoint under re-parsing")
	}
}

func TestParseDiagnostic(t *testing.T) {
	_, err := punt.Parse(".model broken\n.bogus directive\n.end\n")
	var diag *punt.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("parse error is not a *Diagnostic: %v", err)
	}
	if diag.Kind != punt.KindParse {
		t.Errorf("kind = %v, want KindParse", diag.Kind)
	}
}

func TestNonSemiModularDiagnostic(t *testing.T) {
	spec, err := punt.LoadFile("testdata/nonsm.g")
	if err != nil {
		t.Fatal(err)
	}
	_, err = punt.New().Synthesize(context.Background(), spec)
	if !errors.Is(err, punt.ErrNotSemiModular) {
		t.Fatalf("errors.Is(ErrNotSemiModular) = false for %v", err)
	}
	var diag *punt.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("not a *Diagnostic: %v", err)
	}
	if diag.Kind != punt.KindNotSemiModular {
		t.Errorf("kind = %v", diag.Kind)
	}
	if diag.Place != "p" {
		t.Errorf("diagnostic should carry the shared choice place, got %q", diag.Place)
	}
	if len(diag.Trace) == 0 || !strings.Contains(diag.Trace[0], "can be disabled by") {
		t.Errorf("diagnostic trace should carry the violation: %v", diag.Trace)
	}
}

func TestCSCDiagnosticAcrossEngines(t *testing.T) {
	spec, err := punt.LoadFile("testdata/csc.g")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic} {
		_, err := punt.New(punt.WithEngine(engine)).Synthesize(context.Background(), spec)
		if !errors.Is(err, punt.ErrCSC) {
			t.Errorf("%v: errors.Is(ErrCSC) = false for %v", engine, err)
		}
		var diag *punt.Diagnostic
		if !errors.As(err, &diag) || diag.Kind != punt.KindCSC {
			t.Errorf("%v: diagnostic = %+v", engine, diag)
		}
	}
}

func TestEventLimitDiagnostic(t *testing.T) {
	_, err := punt.New(punt.WithMaxEvents(3)).Synthesize(context.Background(), punt.MullerPipeline(8))
	if !errors.Is(err, punt.ErrEventLimit) {
		t.Fatalf("errors.Is(ErrEventLimit) = false for %v", err)
	}
	if !errors.Is(err, punt.ErrLimit) {
		t.Errorf("every budget overrun should match the unified ErrLimit: %v", err)
	}
}

func TestUnsafeNetDiagnostic(t *testing.T) {
	// Two unmarked producers into one place make the place 2-bounded.
	spec, err := punt.Parse(`
.model unsafe
.inputs a
.outputs b
.graph
a+ p
b+ p
p a-
a- b-
b- a+ b+
.marking { <b-,a+> <b-,b+> }
.initial_state 00
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = punt.New().Synthesize(context.Background(), spec)
	if !errors.Is(err, punt.ErrNotSafe) {
		t.Fatalf("errors.Is(ErrNotSafe) = false for %v", err)
	}
	var diag *punt.Diagnostic
	if !errors.As(err, &diag) || diag.Kind != punt.KindNotSafe || diag.Place == "" {
		t.Errorf("diagnostic = %+v", diag)
	}
}

func TestBaselinesMatchUnfoldingLiterals(t *testing.T) {
	spec := punt.MullerPipeline(4)
	var literals []int
	for _, engine := range []string{punt.Unfolding, punt.Explicit, punt.Symbolic} {
		res, err := punt.New(punt.WithEngine(engine)).Synthesize(context.Background(), spec)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		literals = append(literals, res.Literals())
		if engine != punt.Unfolding && res.Stats.States == 0 {
			t.Errorf("%v: no state count reported", engine)
		}
	}
	if literals[0] != literals[1] || literals[1] != literals[2] {
		t.Errorf("engines disagree on literal count: %v", literals)
	}
}

func TestArchitecturesThroughFacade(t *testing.T) {
	for _, arch := range []gates.Architecture{gates.ComplexGate, gates.StandardC, gates.RSLatch} {
		res, err := punt.New(punt.WithArch(arch)).Synthesize(context.Background(), punt.Handshake())
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if len(res.Impl.Gates) == 0 {
			t.Fatalf("%v: no gates", arch)
		}
		if res.Impl.Gates[0].Arch != arch {
			t.Errorf("gate arch = %v, want %v", res.Impl.Gates[0].Arch, arch)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var stages []string
	var signals []string
	_, err := punt.New(punt.WithProgress(func(p punt.Progress) {
		stages = append(stages, p.Stage)
		if p.Stage == "covers" {
			signals = append(signals, p.Signal)
		}
	})).Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Fatal("no progress delivered")
	}
	found := false
	for _, s := range signals {
		if s == "b" {
			found = true
		}
	}
	if !found {
		t.Errorf("the covers stage should name signal b: stages=%v signals=%v", stages, signals)
	}

	// The baselines deliver progress through the same option.
	for _, engine := range []string{punt.Explicit, punt.Symbolic} {
		var built, covered bool
		_, err := punt.New(
			punt.WithEngine(engine),
			punt.WithProgress(func(p punt.Progress) {
				switch p.Stage {
				case "build":
					built = p.States == 8
				case "covers":
					covered = covered || p.Signal == "b"
				}
			}),
		).Synthesize(context.Background(), punt.Fig1())
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !built || !covered {
			t.Errorf("%v: progress incomplete: build-with-8-states=%v covers-b=%v", engine, built, covered)
		}
	}
}

func TestUnfoldAndStateGraphWrappers(t *testing.T) {
	ctx := context.Background()
	spec := punt.Fig1()
	seg, err := punt.Unfold(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := seg.Stats()
	if st.Events != 8 || st.Cutoffs != 2 {
		t.Errorf("segment stats = %+v", st)
	}
	if !strings.Contains(seg.Dump(), "a+:e1") {
		t.Errorf("dump looks wrong:\n%s", seg.Dump())
	}
	if v := seg.SemiModularityViolations(); len(v) != 0 {
		t.Errorf("Figure 1 is semi-modular, got %v", v)
	}
	sg, err := punt.BuildStateGraph(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 8 {
		t.Errorf("states = %d, want 8", sg.NumStates())
	}
	if !strings.Contains(sg.Report(), "CSC: ok") {
		t.Errorf("report:\n%s", sg.Report())
	}
	if c := sg.CSCConflicts(); len(c) != 0 {
		t.Errorf("conflicts = %v", c)
	}
}
