package main

import "math"

// The per-layer metrics of a traced run.  Time is attributed to the layer
// whose public function a span wraps, by self time; a synthesis span is
// split further by the Table 1 columns its Stats carry (UnfTim to
// unfolding, SynTim to core, EspTim to boolcover, the rest of the call to
// resolve when the spec needed a CSC repair and to facade otherwise).  The
// shares add up to one per run: the op's own self time is the benchmark's.
// Layer time is reported as a share of op time rather than as a duration
// because every metric is printed for every workload, and a layer a
// workload never reaches would read a constant zero duration; only
// unfolding, which every workload reaches, also gets a duration.
// layerMap says which end-to-end metric each layer should move.
var perLayer = []struct{ name, unit, better string }{
	{"bench.share", "ratio", "lower"},
	{"spec.parse_share", "ratio", "lower"},
	{"unfolding.share", "ratio", "lower"},
	{"unfolding.ms_p50", "ms", "lower"},
	{"unfolding.events", "count", "lower"},
	{"unfolding.conditions", "count", "lower"},
	{"unfolding.cutoffs", "count", "lower"},
	{"unfolding.events_per_ms", "1/ms", "higher"},
	{"core.share", "ratio", "lower"},
	{"core.terms_refined", "count", "lower"},
	{"core.signals_refined", "count", "lower"},
	{"boolcover.share", "ratio", "lower"},
	{"facade.share", "ratio", "lower"},
	{"resolve.share", "ratio", "lower"},
	{"resolve.ops", "count", "lower"},
	{"resolve.signals_inserted", "count", "lower"},
	{"resolve.iterations", "count", "lower"},
	{"resolve.candidates_failed", "count", "lower"},
	{"resolve.states_reused", "count", "higher"},
	{"resolve.states_expanded", "count", "lower"},
	{"resolve.full_rebuilds", "count", "lower"},
	{"resolve.reuse_ratio", "ratio", "higher"},
	{"verify.checked", "count", "higher"},
	{"verify.failed", "count", "lower"},
	{"gates.eqn_share", "ratio", "lower"},
	{"gates.literals", "count", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.l2_hit_ratio", "ratio", "higher"},
	{"cache.miss_ratio", "ratio", "lower"},
	{"cache.l1_evictions", "count", "lower"},
	{"cache.corrupt", "count", "lower"},
	{"json.share", "ratio", "lower"},
	{"json.doc_kb", "KB", "lower"},
	{"server.share", "ratio", "lower"},
	{"server.collapse_ratio", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
}

// synthesis accumulates the Stats counters of synthesis runs.
type synthesis struct {
	runs                             int
	events, conditions, cutoffs      int64
	termsRefined, signalsRefined     int64
	unfMS                            []float64
	unfNS                            int64
	resolved, inserted, iterations   int64
	candFailed, reused, expanded     int64
	fullRebuilds                     int64
	unfolding, core, boolcover, rest float64 // attributed ns
	restResolve                      float64
}

// add attributes a synthesis of the given wall time from its counters:
// the Table 1 columns to their layers, scaled down when the synthesis took
// longer than the span that observed it (a single-flight join), and the
// remainder to resolve or facade.  On a daemon request the synthesis is
// the span's share its Stats.Attempts account for; the rest is the
// server's.
func (s *synthesis) add(c counters, wall int64) {
	s.runs++
	s.events += c["events"]
	s.conditions += c["conditions"]
	s.cutoffs += c["cutoffs"]
	s.termsRefined += c["terms_refined"]
	s.signalsRefined += c["signals_refined"]
	s.unfMS = append(s.unfMS, float64(c["unf_ns"])/1e6)
	s.unfNS += c["unf_ns"]
	if c["resolved"] == 1 {
		s.resolved++
	}
	s.inserted += c["csc_signals_inserted"]
	s.iterations += c["csc_iterations"]
	s.candFailed += c["csc_candidates_failed"]
	s.reused += c["csc_states_reused"]
	s.expanded += c["csc_states_expanded"]
	s.fullRebuilds += c["csc_full_rebuilds"]

	cols := float64(c["unf_ns"] + c["syn_ns"] + c["esp_ns"])
	scale := 1.0
	if w := float64(wall); cols > w && cols > 0 {
		scale = w / cols
	}
	s.unfolding += float64(c["unf_ns"]) * scale
	s.core += float64(c["syn_ns"]) * scale
	s.boolcover += float64(c["esp_ns"]) * scale
	rest := float64(wall) - cols*scale
	if c["resolved"] == 1 {
		s.restResolve += rest
	} else {
		s.rest += rest
	}
}

// layerMetrics reduces a traced run to the per-layer metrics.
func layerMetrics(d *runData, spans []span) map[string]metric {
	self := selfTimes(spans)
	var total, bench, parse, eqn, json, server, docBytes float64
	var docs int
	var syn synthesis
	for i := range spans {
		s := &spans[i]
		st := float64(self[s.ID])
		switch s.Name {
		case "op":
			total += float64(s.dur())
			bench += st
		case "spec.parse":
			parse += st
		case "result.eqn":
			eqn += st
		case "json.encode", "json.decode":
			json += st
		case "synthesize":
			syn.add(s.Counters, self[s.ID])
		case "unfold":
			syn.runs++
			syn.events += s.Counters["events"]
			syn.conditions += s.Counters["conditions"]
			syn.cutoffs += s.Counters["cutoffs"]
			syn.unfMS = append(syn.unfMS, st/1e6)
			syn.unfNS += self[s.ID]
			syn.unfolding += st
		case "http.post":
			docBytes += float64(s.Counters["doc_bytes"])
			docs++
			if s.Counters["cache_hit"] == 1 || s.Counters["attempts_ns"] == 0 {
				server += st
				continue
			}
			wall := min(self[s.ID], s.Counters["attempts_ns"])
			syn.add(s.Counters, wall)
			server += st - float64(wall)
		}
	}
	share := func(ns float64) float64 {
		if total == 0 {
			return 0
		}
		return ns / total
	}
	perRun := func(n int64) float64 {
		if syn.runs == 0 {
			return 0
		}
		return float64(n) / float64(syn.runs)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var ops int
	var gcs uint64
	var gcCPU, allCPU float64
	for _, b := range d.blocks {
		ops += b.ops
		gcs += b.gcs
		gcCPU += b.gcCPU
		allCPU += b.allCPU
	}
	m := map[string]float64{
		"bench.share":               share(bench),
		"spec.parse_share":          share(parse),
		"unfolding.share":           share(syn.unfolding),
		"unfolding.ms_p50":          median(syn.unfMS),
		"unfolding.events":          perRun(syn.events),
		"unfolding.conditions":      perRun(syn.conditions),
		"unfolding.cutoffs":         perRun(syn.cutoffs),
		"unfolding.events_per_ms":   ratio(float64(syn.events), float64(syn.unfNS)/1e6),
		"core.share":                share(syn.core),
		"core.terms_refined":        perRun(syn.termsRefined),
		"core.signals_refined":      perRun(syn.signalsRefined),
		"boolcover.share":           share(syn.boolcover),
		"facade.share":              share(syn.rest),
		"resolve.share":             share(syn.restResolve),
		"resolve.ops":               float64(syn.resolved),
		"resolve.signals_inserted":  float64(syn.inserted),
		"resolve.iterations":        float64(syn.iterations),
		"resolve.candidates_failed": float64(syn.candFailed),
		"resolve.states_reused":     float64(syn.reused),
		"resolve.states_expanded":   float64(syn.expanded),
		"resolve.full_rebuilds":     float64(syn.fullRebuilds),
		"resolve.reuse_ratio":       ratio(float64(syn.reused), float64(syn.reused+syn.expanded)),
		"verify.checked":            float64(d.checked),
		"verify.failed":             float64(d.checkFail),
		"gates.eqn_share":           share(eqn),
		"gates.literals":            float64(d.literals),
		"json.share":                share(json),
		"json.doc_kb":               ratio(docBytes/1e3, float64(docs)),
		"server.share":              share(server),
		"runtime.gc_per_op":         ratio(float64(gcs), float64(ops)),
		"runtime.gc_cpu_frac":       ratio(gcCPU, allCPU),
		"trace.overhead_frac":       overhead(d),
		"trace.spans":               float64(len(spans)),
	}
	for k, v := range d.layer {
		m[k] = v
	}
	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			v = 0 // a layer the workload never reaches
		}
		if math.IsNaN(v) {
			v = 0
		}
		out[pl.name] = metric{v, pl.unit}
	}
	return out
}
