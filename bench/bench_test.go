package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRunFacade(t *testing.T) {
	points, err := RunFacade(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	fig1 := points[0]
	if fig1.Spec != "fig1" || fig1.Literals != 2 || fig1.Events != 8 {
		t.Errorf("fig1 point = %+v", fig1)
	}
	if fig1.Total <= 0 || fig1.Total < fig1.Synth {
		t.Errorf("times inconsistent: %+v", fig1)
	}
	text := FormatFacade(points)
	if !strings.Contains(text, "fig1") || !strings.Contains(text, "pipeline-22") {
		t.Errorf("formatting:\n%s", text)
	}
}

func TestRunDiskCache(t *testing.T) {
	points, err := RunDiskCache(context.Background(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Cold <= 0 || p.Warm <= 0 {
			t.Errorf("%s: non-positive timings: %+v", p.Spec, p)
		}
		if p.Speedup <= 0 {
			t.Errorf("%s: no speedup computed: %+v", p.Spec, p)
		}
	}
	report := NewReport(nil, nil, nil, nil, points, nil, nil, time.Unix(0, 0))
	if len(report.DiskCache) != 2 || report.DiskCache[0].Spec != "fig1" {
		t.Errorf("disk-cache points lost in the report: %+v", report.DiskCache)
	}
}

func TestFacadePointsInJSONReport(t *testing.T) {
	points, err := RunFacade(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	report := NewReport(nil, nil, points, nil, nil, nil, nil, time.Unix(0, 0))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Facade) != 2 || back.Facade[0].Spec != "fig1" || back.Facade[0].Literals != 2 {
		t.Errorf("facade entries lost in JSON round trip: %+v", back.Facade)
	}
}

func TestRunDecompose(t *testing.T) {
	points, err := RunDecompose(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	counterflow, pipeline := points[0], points[1]
	if counterflow.Components != 2 {
		t.Errorf("counterflow must split into 2 components, got %d", counterflow.Components)
	}
	if pipeline.Components != 1 {
		t.Errorf("pipeline-22 must be indivisible, got %d components", pipeline.Components)
	}
	for _, p := range points {
		if !p.Identical {
			t.Errorf("%s: decompose output diverged from the monolithic engine", p.Spec)
		}
		if p.Monolithic <= 0 || p.Decomposed <= 0 || p.Literals == 0 {
			t.Errorf("%s: point = %+v", p.Spec, p)
		}
	}
	text := FormatDecompose(points)
	if !strings.Contains(text, "counterflow") || !strings.Contains(text, "Speedup") {
		t.Errorf("formatting:\n%s", text)
	}
	report := NewReport(nil, nil, nil, nil, nil, nil, points, time.Unix(0, 0))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Decompose) != 2 || back.Decompose[0].Components != 2 {
		t.Errorf("decompose entries lost in JSON round trip: %+v", back.Decompose)
	}
}

func TestRunResolveRetry(t *testing.T) {
	points, err := RunResolveRetry(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	p := points[0]
	if p.Seeds == 0 || p.FullRebuild <= 0 || p.Incremental <= 0 {
		t.Fatalf("empty sweep: %+v", p)
	}
	if p.IncrementalBuilds == 0 {
		t.Errorf("sweep never validated a candidate incrementally: %+v", p)
	}
	text := FormatResolveRetry(points)
	if !strings.Contains(text, "Speedup") {
		t.Errorf("formatting:\n%s", text)
	}
	report := NewReport(nil, nil, nil, nil, nil, points, nil, time.Unix(0, 0))
	if len(report.ResolveRetry) != 1 || report.ResolveRetry[0].Seeds != p.Seeds {
		t.Errorf("retry sweep lost in the report: %+v", report.ResolveRetry)
	}
}
