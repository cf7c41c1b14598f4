package stg_test

import (
	"runtime"
	"strings"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
)

// parseCorpus is the ".g" text of every Table 1 spec and of the largest
// Figure 6 pipeline.
func parseCorpus() map[string]string {
	texts := map[string]string{"pipeline-50": stg.Format(benchgen.MullerPipelineWithSignals(50))}
	for _, e := range benchgen.Table1Suite() {
		texts[e.Name] = stg.Format(e.Build())
	}
	return texts
}

// maxParseBytes bounds the heap one Parse of a corpus spec allocates.  The
// specs are 1-4 KiB of text; a line buffer sized for the longest accepted
// line (1 MiB) would exceed the bound on its own.
const maxParseBytes = 64 << 10

// TestParseAllocatesInProportion checks that parsing a spec allocates memory
// in proportion to the spec, not to the parser's 1 MiB line cap.
func TestParseAllocatesInProportion(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what Parse allocates")
	}
	const runs = 20
	for name, text := range parseCorpus() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := stg.Parse(strings.NewReader(text)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxParseBytes {
			t.Errorf("%s: %d B per Parse of %d B of text, want at most %d", name, per, len(text), maxParseBytes)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	texts := parseCorpus()
	for _, name := range []string{"nowick", "mp-forward-pkt", "pipeline-50"} {
		text := texts[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := stg.Parse(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
