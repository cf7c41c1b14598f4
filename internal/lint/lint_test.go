package lint

import (
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName(nosuch) resolved")
	}
}

// TestFilters pins the package scoping of the filtered analyzers: fixture
// runs bypass Filter, so nothing else exercises these predicates.
func TestFilters(t *testing.T) {
	in := []string{
		"punt/internal/unfolding", "punt/internal/stategraph", "punt/internal/resolve",
		"punt/internal/boolcover", "punt/internal/gatelib", "punt/gates",
	}
	for _, path := range in {
		if !MapIterDet.Filter(&Package{PkgPath: path}) {
			t.Errorf("mapiterdet skips determinism-critical package %s", path)
		}
	}
	out := []string{"punt", "punt/server", "punt/internal/stg", "punt/internal/bitvec"}
	for _, path := range out {
		if MapIterDet.Filter(&Package{PkgPath: path}) {
			t.Errorf("mapiterdet runs on out-of-scope package %s", path)
		}
	}

	if CtxDiscipline.Filter(&Package{PkgPath: "punt/cmd/punt", IsMain: true}) {
		t.Error("ctxdiscipline runs on a main package")
	}
	if !CtxDiscipline.Filter(&Package{PkgPath: "punt/server"}) {
		t.Error("ctxdiscipline skips library code")
	}
	if GoHygiene.Filter(&Package{PkgPath: "punt/cmd/puntd", IsMain: true}) {
		t.Error("gohygiene runs on a main package")
	}
}

func TestIsFacadePackage(t *testing.T) {
	for _, path := range []string{"punt", "punt/server", "punt/cmd/punt"} {
		if !isFacadePackage(&Package{PkgPath: path}) {
			t.Errorf("%s not treated as facade", path)
		}
	}
	for _, path := range []string{"punt/internal/core", "punt/internal/benchgen", "punt/gates"} {
		if isFacadePackage(&Package{PkgPath: path}) {
			t.Errorf("%s treated as facade", path)
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	tests := []struct {
		format string
		want   string // verb letters in order, "" for nil (out of scope)
	}{
		{"plain", ""},
		{"%d and %s", "ds"},
		{"%%d is literal", ""},
		{"%+v %#v %10.2f %w", "vvfw"},
		{"%*d", ""},   // starred width: positional, out of scope
		{"%[1]d", ""}, // indexed: out of scope
	}
	for _, tt := range tests {
		verbs := formatVerbs(tt.format)
		var got strings.Builder
		for _, v := range verbs {
			got.WriteByte(v.letter)
		}
		if got.String() != tt.want {
			t.Errorf("formatVerbs(%q) letters = %q, want %q", tt.format, got.String(), tt.want)
		}
	}
}

// TestIgnoreDirectives loads the ignores fixture through the full Run path:
// a reasoned directive suppresses its finding, a stale directive and a
// reasonless directive are findings themselves, and the undirected
// violation survives.
func TestIgnoreDirectives(t *testing.T) {
	prog, err := Load(".", "./testdata/src/ignores")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(prog, []*Analyzer{CtxDiscipline})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wantSubstrings := []string{
		"ctxdiscipline: context.Background", // unsuppressed()
		"puntlint: stale ignore directive",  // clean()'s directive
		"puntlint: ignore directive needs",  // missingReason()'s directive
		"ctxdiscipline: context.Background", // missingReason() itself: no reason, no suppression
	}
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(wantSubstrings), strings.Join(got, "\n"))
	}
	remaining := append([]string(nil), got...)
	for _, want := range wantSubstrings {
		found := false
		for i, g := range remaining {
			if strings.Contains(g, want) {
				remaining = append(remaining[:i], remaining[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding matching %q in:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestIgnoreDirectivesPartialRun checks that a run which did not include a
// directive's analyzer cannot condemn the directive as stale.
func TestIgnoreDirectivesPartialRun(t *testing.T) {
	prog, err := Load(".", "./testdata/src/ignores")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(prog, []*Analyzer{GoHygiene})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "stale ignore directive") {
			t.Errorf("partial run flagged a directive as stale: %s", d.Message)
		}
	}
	// The reasonless directive is malformed regardless of which analyzers ran.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "ignore directive needs") {
			found = true
		}
	}
	if !found {
		t.Error("partial run did not flag the reasonless directive")
	}
}
