package unfolding

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/bitvec"
	"punt/internal/petri"
	"punt/internal/stg"
)

// errOracleLimit reports that inferInitialState gave up.
var errOracleLimit = errors.New("oracle: state limit exceeded")

// errOracleInconsistent reports a signal whose first edge can be rising or
// falling.
var errOracleInconsistent = errors.New("oracle: signal can both rise and fall first")

// inferInitialState is the explicit-state oracle for the initial state Build
// reads off the segment.  For each signal it runs a breadth-first search over
// the markings reachable without firing that signal, bounded by maxStates
// markings, and records which of its edges become enabled.  A rising first
// edge means the signal starts at 0, a falling one at 1, both mean the
// specification is inconsistent, and a signal that never switches starts
// at 0.
func inferInitialState(g *stg.STG, maxStates int) (bitvec.Vec, error) {
	v := bitvec.New(g.NumSignals())
	for sig := 0; sig < g.NumSignals(); sig++ {
		plus, minus, err := firstDirections(g, sig, maxStates)
		if err != nil {
			return v, err
		}
		if plus && minus {
			return v, fmt.Errorf("%w: %q", errOracleInconsistent, g.Signal(sig).Name)
		}
		v.Set(sig, minus)
	}
	return v, nil
}

// firstDirections explores the markings reachable without firing any
// transition of signal sig and reports which directions of sig become
// enabled.
func firstDirections(g *stg.STG, sig, maxStates int) (plus, minus bool, err error) {
	n := g.Net()
	initial := n.Initial()
	seen := map[string]bool{initial.Key(): true}
	queue := []petri.Marking{initial}
	for len(queue) > 0 && !(plus && minus) {
		m := queue[0]
		queue = queue[1:]
		for _, t := range n.EnabledTransitions(m) {
			if l := g.Label(t); !l.IsDummy && l.Signal == sig {
				if l.Dir == stg.Plus {
					plus = true
				} else {
					minus = true
				}
				continue // do not fire transitions of the signal itself
			}
			next := n.Fire(m, t)
			key := next.Key()
			if seen[key] {
				continue
			}
			if len(seen) >= maxStates {
				return plus, minus, errOracleLimit
			}
			seen[key] = true
			queue = append(queue, next)
		}
	}
	return plus, minus, nil
}

// stripInitialState renders g and drops its .initial_state line, giving the
// text a SIS or Petrify tool would write for it.
func stripInitialState(t testing.TB, g *stg.STG) (text, stripped string) {
	t.Helper()
	text = stg.Format(g)
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, ".initial_state") {
			sb.WriteString(line)
		}
	}
	return text, sb.String()
}

// parseStripped parses a directive-less text, which must carry no state.
func parseStripped(t testing.TB, stripped string) *stg.STG {
	t.Helper()
	g, err := stg.ParseString(stripped)
	if err != nil {
		t.Fatalf("parse stripped text: %v\n%s", err, stripped)
	}
	if g.HasInitialState() {
		t.Fatalf("stripped text still carries an initial state:\n%s", stripped)
	}
	return g
}

// startsHigh is a spec whose signal x starts at 1: its first edge is x-.
func startsHigh(t testing.TB) *stg.STG {
	t.Helper()
	b := stg.NewBuilder("high")
	b.Outputs("x", "y")
	b.Arc("x-", "y+").Arc("y+", "x+").Arc("x+", "y-").Arc("y-", "x-").MarkBetween("y-", "x-")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeriveInitialState(t *testing.T) {
	text, stripped := stripInitialState(t, benchgen.PaperFig1())
	g := parseStripped(t, stripped)
	if err := DeriveInitialState(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if got := stg.Format(g); got != text {
		t.Fatalf("derived spec renders as\n%s\nwant\n%s", got, text)
	}
	// A set state is left alone, even when the segment disagrees with it.
	h := parseStripped(t, stripped)
	h.SetInitialState(bitvec.New(h.NumSignals()))
	if err := DeriveInitialState(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	if !h.InitialState().Equal(bitvec.New(h.NumSignals())) {
		t.Fatalf("DeriveInitialState overwrote a set state: %s", h.InitialState())
	}
}

func TestDeriveInitialStateStartsHigh(t *testing.T) {
	g := startsHigh(t)
	u := build(t, g)
	xi, _ := g.SignalIndex("x")
	yi, _ := g.SignalIndex("y")
	st := g.InitialState()
	if !st.Get(xi) {
		t.Fatal("x starts high (its first edge is x-)")
	}
	if st.Get(yi) {
		t.Fatal("y starts low (its first edge is y+)")
	}
	if !u.Root.Code.Equal(st) {
		t.Fatalf("root code %s, want the derived state %s", u.Root.Code, st)
	}
	oracle, err := inferInitialState(startsHigh(t), 1000)
	if err != nil || !oracle.Equal(st) {
		t.Fatalf("oracle %s, %v; derived %s", oracle, err, st)
	}
}

// TestDerivedInitialStateInconsistent pins the error of a spec whose signal
// can rise first on one branch and fall first on the other.
func TestDerivedInitialStateInconsistent(t *testing.T) {
	g, err := stg.ParseString(".model bad\n.inputs i\n.outputs x\n.graph\np0 i+ i-\ni+ x+\ni- x-\nx+ p1\nx- p1\n.marking { p0 }\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inferInitialState(g, 1000); !errors.Is(err, errOracleInconsistent) {
		t.Fatalf("oracle: %v, want inconsistent", err)
	}
	_, err = Build(context.Background(), g, Options{})
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("Build: %v, want an InconsistencyError", err)
	}
	if g.HasInitialState() {
		t.Fatal("a failed Build must leave the initial state unset")
	}
}

// initStateCorpus is every spec family the derived initial state is checked
// on: Table 1, the Figure 6 pipelines and counterflow, the paper's figures,
// the repository's .g files, the choice controllers and RandomSTG seeds.
func initStateCorpus(t *testing.T, randomSeeds int64) map[string]*stg.STG {
	high := startsHigh(t)
	xi, _ := high.SignalIndex("x")
	highState := bitvec.New(high.NumSignals())
	highState.Set(xi, true)
	high.SetInitialState(highState)
	specs := map[string]*stg.STG{
		"fig1":        benchgen.PaperFig1(),
		"fig4":        benchgen.PaperFig4(),
		"handshake":   benchgen.Handshake(),
		"counterflow": benchgen.CounterflowPipeline(),
		"starts-high": high,
	}
	for _, e := range benchgen.Table1Suite() {
		specs["table1-"+e.Name] = e.Build()
	}
	for _, n := range []int{5, 8, 12, 17, 22, 27, 32, 42, 50} {
		specs[fmt.Sprintf("pipeline-%d", n)] = benchgen.MullerPipelineWithSignals(n)
	}
	for _, n := range []int{4, 8, 12, 16} {
		for _, seed := range []int64{7, 11} {
			name := fmt.Sprintf("choice-%d-%d", n, seed)
			specs[name] = benchgen.ChoiceController(name, n, seed)
		}
	}
	specs["choice-16"] = benchgen.ChoiceController("choice-16", 16, 11)
	for s := int64(1); s <= randomSeeds; s++ {
		specs[fmt.Sprintf("random-%d", s)] = benchgen.RandomSTG(s, int(4+s%14))
	}
	paths, err := filepath.Glob("../../testdata/*.g")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		g, err := stg.ParseFile(p)
		if err != nil {
			t.Fatal(err)
		}
		specs["testdata-"+filepath.Base(p)] = g
	}
	return specs
}

// TestDerivedInitialStateMatchesOracle strips .initial_state from every
// corpus spec and checks that Build derives the state the spec was written
// with, so its canonical text (and the facade's Spec.Hash) is unchanged, and
// that the BFS oracle agrees wherever it finishes.
func TestDerivedInitialStateMatchesOracle(t *testing.T) {
	const oracleStates = 3000
	seeds := int64(400)
	if testing.Short() {
		seeds = 50
	}
	finished := 0
	for name, g := range initStateCorpus(t, seeds) {
		if !g.HasInitialState() {
			t.Fatalf("%s: corpus specs carry their initial state", name)
		}
		text, stripped := stripInitialState(t, g)
		h := parseStripped(t, stripped)
		// The directive-bearing text, reparsed, declares its signals in the
		// order the stripped one does, so the two segments dump alike.
		withState, err := stg.ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := Build(context.Background(), withState, Options{})
		if err != nil {
			t.Fatalf("%s: directive build: %v", name, err)
		}
		u, err := Build(context.Background(), h, Options{})
		if err != nil {
			t.Fatalf("%s: stripped build: %v", name, err)
		}
		if got := stg.Format(h); got != text {
			t.Fatalf("%s: derived spec renders as\n%s\nwant\n%s", name, got, text)
		}
		if u.Dump() != full.Dump() {
			t.Fatalf("%s: the relative-code segment differs from the directive's", name)
		}
		oracle, err := inferInitialState(parseStripped(t, stripped), oracleStates)
		if errors.Is(err, errOracleLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		finished++
		if !oracle.Equal(h.InitialState()) {
			t.Fatalf("%s: derived %s, oracle %s", name, h.InitialState(), oracle)
		}
	}
	if min := int(seeds); finished < min {
		t.Fatalf("the oracle finished on only %d specs", finished)
	}
}

// FuzzInitialState checks the derivation against the oracle on mutated small
// specs with their .initial_state dropped:
//
//   - when Build derives a state and the oracle finishes, they agree;
//   - when the oracle finds a signal that can rise and fall first, Build
//     fails;
//   - a failed Build leaves the state unset, and a derived state is the one
//     the segment's root reports.
//
// Run with:
//
//	go test -run=NONE -fuzz=FuzzInitialState -fuzztime=30s ./internal/unfolding
func FuzzInitialState(f *testing.F) {
	paths, _ := filepath.Glob("../../testdata/*.g")
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(string(data))
		}
	}
	for _, g := range []*stg.STG{benchgen.PaperFig1(), benchgen.PaperFig4(), benchgen.RandomSTG(3, 6), benchgen.ChoiceController("choice", 4, 7)} {
		f.Add(stg.Format(g))
	}
	f.Add(".model high\n.outputs x y\n.graph\nx- y+\ny+ x+\nx+ y-\ny- x-\n.marking { <y-,x-> }\n.end\n")
	f.Add(".model bad\n.inputs i\n.outputs x\n.graph\np0 i+ i-\ni+ x+\ni- x-\nx+ p1\nx- p1\n.marking { p0 }\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		g, err := stg.ParseString(src)
		if err != nil {
			return
		}
		_, stripped := stripInitialState(t, g)
		h, err := stg.ParseString(stripped)
		if err != nil {
			t.Fatalf("stripped text no longer parses: %v\n%s", err, stripped)
		}
		u, buildErr := Build(context.Background(), h, Options{MaxEvents: 2000})
		oracle, oracleErr := inferInitialState(parseStripped(t, stripped), 2000)
		if buildErr != nil {
			if h.HasInitialState() {
				t.Fatalf("failed Build (%v) set the initial state", buildErr)
			}
			return
		}
		if !u.Root.Code.Equal(h.InitialState()) {
			t.Fatalf("root code %s, derived state %s", u.Root.Code, h.InitialState())
		}
		switch {
		case errors.Is(oracleErr, errOracleLimit):
		case oracleErr != nil:
			t.Fatalf("Build derived %s, oracle: %v\n%s", h.InitialState(), oracleErr, stripped)
		case !oracle.Equal(h.InitialState()):
			t.Fatalf("derived %s, oracle %s\n%s", h.InitialState(), oracle, stripped)
		}
	})
}
