package punt_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"punt"
)

// stripDirective drops the .initial_state line of a ".g" text, as SIS and
// Petrify write their files.
func stripDirective(text string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, ".initial_state") {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestDirectiveLessSpecsLoadAndSynthesize loads Table 1, the Figure 6
// pipelines up to 50 signals and counterflow without .initial_state: each
// gets the state the directive gives, so Text and Hash are unchanged, and
// synthesizes to the same equations.
func TestDirectiveLessSpecsLoadAndSynthesize(t *testing.T) {
	specs := map[string]*punt.Spec{
		"pipeline-20": punt.MullerPipelineWithSignals(20),
		"pipeline-50": punt.MullerPipelineWithSignals(50),
		"counterflow": punt.CounterflowPipeline(),
	}
	for _, item := range punt.Table1() {
		specs[item.Name] = item.Spec
	}
	synth := punt.New()
	for name, spec := range specs {
		stripped := stripDirective(spec.Text())
		if stripped == spec.Text() {
			t.Fatalf("%s: the spec carries no directive to strip", name)
		}
		loaded, err := punt.Parse(stripped)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Text() != spec.Text() || loaded.Hash() != spec.Hash() {
			t.Fatalf("%s: the directive-less spec loads as\n%s\nwant\n%s", name, loaded.Text(), spec.Text())
		}
		if !strings.HasPrefix(name, "pipeline-") {
			continue
		}
		// The reparsed text declares the signals in the order the stripped
		// one does, so the equations list them alike.
		withState, err := punt.Parse(spec.Text())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := synth.Synthesize(context.Background(), withState)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := synth.Synthesize(context.Background(), loaded)
		if err != nil {
			t.Fatalf("%s: stripped: %v", name, err)
		}
		if got.Eqn() != want.Eqn() {
			t.Fatalf("%s: equations differ", name)
		}
	}
}

// TestDirectiveLessLoadDiagnostics pins how a directive-less spec whose
// segment cannot be built fails to load: with the Kind synthesis reports.
func TestDirectiveLessLoadDiagnostics(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		text string
		kind punt.DiagKind
	}{
		{"not safe", context.Background(),
			".model unsafe\n.outputs a b\n.graph\np0 a+ b+\na+ p1\nb+ p1\np1 a- \na- p0\n.marking { p0 p1 }\n.end\n",
			punt.KindNotSafe},
		{"inconsistent", context.Background(),
			".model bad\n.inputs i\n.outputs x\n.graph\np0 i+ i-\ni+ x+\ni- x-\nx+ p1\nx- p1\n.marking { p0 }\n.end\n",
			punt.KindInconsistent},
		{"canceled", canceled, stripDirective(punt.MullerPipelineWithSignals(8).Text()), punt.KindCanceled},
	}
	for _, c := range cases {
		_, err := punt.LoadContext(c.ctx, strings.NewReader(c.text))
		var d *punt.Diagnostic
		if !errors.As(err, &d) {
			t.Fatalf("%s: %v is not a Diagnostic", c.name, err)
		}
		if d.Kind != c.kind || d.Op != "load" {
			t.Errorf("%s: %s diagnostic of kind %v, want load of kind %v (%v)", c.name, d.Op, d.Kind, c.kind, err)
		}
	}
	// The directive skips the segment build, so a cancelled ctx does not
	// stop a spec that carries its state.
	if _, err := punt.LoadContext(canceled, strings.NewReader(punt.MullerPipelineWithSignals(8).Text())); err != nil {
		t.Fatalf("directive-bearing load under a cancelled ctx: %v", err)
	}
}

// BenchmarkLoad prices loading a Figure 6 pipeline with and without the
// .initial_state directive; without it, loading builds the segment once.
func BenchmarkLoad(b *testing.B) {
	for _, n := range []int{16, 50} {
		text := punt.MullerPipelineWithSignals(n).Text()
		for _, c := range []struct{ name, text string }{{"directive", text}, {"stripped", stripDirective(text)}} {
			b.Run(fmt.Sprintf("pipeline-%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := punt.Parse(c.text); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
