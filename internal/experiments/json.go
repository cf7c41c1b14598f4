package experiments

import (
	"encoding/json"
	"io"
	"time"
)

// The JSON report gives future PRs a machine-readable perf trajectory to
// regress against: benchtab -json emits one Report per run; diffing two
// reports shows where synthesis time moved.

// JSONTool is the JSON shape of one tool's result on one benchmark.
type JSONTool struct {
	Ok       bool    `json:"ok"`
	Reason   string  `json:"reason,omitempty"`
	Seconds  float64 `json:"seconds"`
	Literals int     `json:"literals"`
}

func jsonTool(t ToolResult) JSONTool {
	return JSONTool{Ok: t.Ok, Reason: t.Reason, Seconds: t.Time.Seconds(), Literals: t.Literals}
}

// JSONTable1Row is the JSON shape of one Table 1 row.
type JSONTable1Row struct {
	Name           string   `json:"name"`
	Signals        int      `json:"signals"`
	UnfSeconds     float64  `json:"unf_seconds"`
	SynSeconds     float64  `json:"syn_seconds"`
	EspSeconds     float64  `json:"esp_seconds"`
	TotalSeconds   float64  `json:"total_seconds"`
	Literals       int      `json:"literals"`
	Events         int      `json:"events"`
	Conditions     int      `json:"conditions"`
	Refined        int      `json:"refined"`
	SignalsRefined int      `json:"signals_refined"`
	Petrify        JSONTool `json:"petrify"`
	SIS            JSONTool `json:"sis"`
}

// JSONFigure6Point is the JSON shape of one Figure 6 measurement.
type JSONFigure6Point struct {
	Signals int      `json:"signals"`
	PUNT    JSONTool `json:"punt"`
	Petrify JSONTool `json:"petrify"`
	SIS     JSONTool `json:"sis"`
}

// JSONFacadePoint is the JSON shape of one end-to-end public-API
// measurement.
type JSONFacadePoint struct {
	Spec         string  `json:"spec"`
	Runs         int     `json:"runs"`
	ParseSeconds float64 `json:"parse_seconds"`
	SynthSeconds float64 `json:"synth_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
	Literals     int     `json:"literals"`
	Events       int     `json:"events"`
}

// JSONCachePoint is the JSON shape of one cache-effectiveness measurement
// (cold synthesis vs warm cache hit).
type JSONCachePoint struct {
	Spec        string  `json:"spec"`
	Runs        int     `json:"runs"`
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	Speedup     float64 `json:"speedup"`
	Literals    int     `json:"literals"`
}

// JSONResolveRetryPoint is the JSON shape of one CSC-retry sweep.
type JSONResolveRetryPoint struct {
	Seeds             int     `json:"seeds"`
	FullSeconds       float64 `json:"full_seconds"`
	IncrSeconds       float64 `json:"incr_seconds"`
	Speedup           float64 `json:"speedup"`
	IncrementalBuilds int     `json:"incremental_builds"`
	FullRebuilds      int     `json:"full_rebuilds"`
	StatesReused      int     `json:"states_reused"`
}

// JSONDecomposePoint is the JSON shape of one compositional-synthesis
// measurement.
type JSONDecomposePoint struct {
	Spec        string  `json:"spec"`
	Runs        int     `json:"runs"`
	Components  int     `json:"components"`
	MonoSeconds float64 `json:"mono_seconds"`
	DecSeconds  float64 `json:"dec_seconds"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"identical"`
	Literals    int     `json:"literals"`
}

// Report is the top-level JSON document emitted by benchtab -json.
type Report struct {
	GeneratedAt string             `json:"generated_at"`
	Table1      []JSONTable1Row    `json:"table1,omitempty"`
	Figure6     []JSONFigure6Point `json:"figure6,omitempty"`
	Facade      []JSONFacadePoint  `json:"facade,omitempty"`
	Cache       []JSONCachePoint   `json:"cache,omitempty"`
	// DiskCache holds the persistent-store measurements: Warm is a hit served
	// by the on-disk tier through fresh in-memory tiers, i.e. the cost of a
	// warm request after a daemon restart.
	DiskCache []JSONCachePoint `json:"disk_cache,omitempty"`
	// ResolveRetry holds the full-rebuild-vs-incremental CSC-resolution sweep.
	ResolveRetry []JSONResolveRetryPoint `json:"resolve_retry,omitempty"`
	// Decompose holds the compositional-synthesis measurements (monolithic vs
	// split-synthesize-recombine, with the output-identity verdict).
	Decompose []JSONDecomposePoint `json:"decompose,omitempty"`
}

// NewReport converts measured rows and points into the JSON report shape.
func NewReport(rows []Table1Row, points []Figure6Point, facade []FacadePoint, cache, disk []CachePoint, retry []ResolveRetryPoint, decomp []DecomposePoint, now time.Time) Report {
	r := Report{GeneratedAt: now.UTC().Format(time.RFC3339)}
	for _, p := range decomp {
		r.Decompose = append(r.Decompose, JSONDecomposePoint{
			Spec:        p.Spec,
			Runs:        p.Runs,
			Components:  p.Components,
			MonoSeconds: p.Monolithic.Seconds(),
			DecSeconds:  p.Decomposed.Seconds(),
			Speedup:     p.Speedup,
			Identical:   p.Identical,
			Literals:    p.Literals,
		})
	}
	for _, p := range retry {
		r.ResolveRetry = append(r.ResolveRetry, JSONResolveRetryPoint{
			Seeds:             p.Seeds,
			FullSeconds:       p.FullRebuild.Seconds(),
			IncrSeconds:       p.Incremental.Seconds(),
			Speedup:           p.Speedup,
			IncrementalBuilds: p.IncrementalBuilds,
			FullRebuilds:      p.FullRebuilds,
			StatesReused:      p.StatesReused,
		})
	}
	for _, p := range facade {
		r.Facade = append(r.Facade, JSONFacadePoint{
			Spec:         p.Spec,
			Runs:         p.Runs,
			ParseSeconds: p.Parse.Seconds(),
			SynthSeconds: p.Synth.Seconds(),
			TotalSeconds: p.Total.Seconds(),
			Literals:     p.Literals,
			Events:       p.Events,
		})
	}
	r.Cache = jsonCachePoints(cache)
	r.DiskCache = jsonCachePoints(disk)
	for _, row := range rows {
		r.Table1 = append(r.Table1, JSONTable1Row{
			Name:           row.Name,
			Signals:        row.Signals,
			UnfSeconds:     row.UnfTime.Seconds(),
			SynSeconds:     row.SynTime.Seconds(),
			EspSeconds:     row.EspTime.Seconds(),
			TotalSeconds:   row.TotalTime.Seconds(),
			Literals:       row.Literals,
			Events:         row.Events,
			Conditions:     row.Conditions,
			Refined:        row.Refined,
			SignalsRefined: row.SigRefined,
			Petrify:        jsonTool(row.Petrify),
			SIS:            jsonTool(row.SIS),
		})
	}
	for _, p := range points {
		r.Figure6 = append(r.Figure6, JSONFigure6Point{
			Signals: p.Signals,
			PUNT:    jsonTool(p.PUNT),
			Petrify: jsonTool(p.Petrify),
			SIS:     jsonTool(p.SIS),
		})
	}
	return r
}

func jsonCachePoints(points []CachePoint) []JSONCachePoint {
	var out []JSONCachePoint
	for _, p := range points {
		out = append(out, JSONCachePoint{
			Spec:        p.Spec,
			Runs:        p.Runs,
			ColdSeconds: p.Cold.Seconds(),
			WarmSeconds: p.Warm.Seconds(),
			Speedup:     p.Speedup,
			Literals:    p.Literals,
		})
	}
	return out
}

// WriteJSON writes the report, indented, to w.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
