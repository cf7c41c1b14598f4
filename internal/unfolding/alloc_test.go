package unfolding

import (
	"context"
	"runtime"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
)

// maxBytesPerEvent bounds the heap Build allocates per event on the four
// specs of puntbench's segments workload.  Each bound is about 1.25 times the
// measured figure (2-vCPU Xeon VM, go1.24): pipeline-22 1817 B, pipeline-34
// 2454 B, pipeline-50 3493 B, counterflow 2087 B per event.  A map-backed
// marking per event and one-word co-row growth took 2930, 4923, 6401 and
// 4508 B.
var maxBytesPerEvent = map[string]uint64{
	"pipeline-22": 2300,
	"pipeline-34": 3100,
	"pipeline-50": 4400,
	"counterflow": 2600,
}

// TestBuildAllocatesPerEvent pins what segment construction allocates per
// event, so a per-event map or a word-at-a-time growth path coming back
// shows up as a failure instead of as GC time.
func TestBuildAllocatesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what Build allocates")
	}
	specs := map[string]*stg.STG{
		"pipeline-22": benchgen.MullerPipelineWithSignals(22),
		"pipeline-34": benchgen.MullerPipelineWithSignals(34),
		"pipeline-50": benchgen.MullerPipelineWithSignals(50),
		"counterflow": benchgen.CounterflowPipeline(),
	}
	const runs = 5
	for name, g := range specs {
		var before, after runtime.MemStats
		events := 0
		runtime.ReadMemStats(&before)
		for range runs {
			u, err := Build(context.Background(), g, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			events = u.NumEvents()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(events)
		t.Logf("%s: %d B per event over %d events", name, per, events)
		if limit := maxBytesPerEvent[name]; per > limit {
			t.Errorf("%s: %d B allocated per event, want at most %d", name, per, limit)
		}
	}
}
