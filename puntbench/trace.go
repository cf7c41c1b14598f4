package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"punt"
)

// counters are the numbers a span carries besides its interval.
type counters map[string]int64

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls.  Times are nanoseconds since the tracer's epoch.
// Parent 0 marks a root: every op has a root span named "op", and the
// post-run output checks are roots named "verify".
type span struct {
	Name     string   `json:"name"`
	ID       int      `json:"id"`
	Parent   int      `json:"parent"`
	Op       int      `json:"op"`
	Start    int64    `json:"start_ns"`
	End      int64    `json:"end_ns"`
	Counters counters `json:"counters,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer holds every span of a run in memory; they are written out once,
// when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	ids   int
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve hands out n consecutive span ids and, when op is true, a fresh op
// id.
func (t *tracer) reserve(n int, op bool) (firstID, opID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	firstID = t.ids + 1
	t.ids += n
	if op {
		t.ops++
		opID = t.ops
	}
	return firstID, opID
}

func (t *tracer) add(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// opTrace collects the spans of one op.  A nil *opTrace is an untraced op:
// every method is then a no-op, so traced and untraced ops run the same
// code.
type opTrace struct {
	t     *tracer
	spans []span
}

// maxChildren bounds the child spans of one op, so an op reserves its ids
// with one lock acquisition.
const maxChildren = 7

// startOp opens the root span of a new op; t == nil gives an untraced op.
func startOp(t *tracer) *opTrace {
	if t == nil {
		return nil
	}
	id, op := t.reserve(1+maxChildren, true)
	o := &opTrace{t: t, spans: make([]span, 1, 1+maxChildren)}
	o.spans[0] = span{Name: "op", ID: id, Op: op, Start: t.now()}
	return o
}

// begin opens a child span of the op's root and returns its handle.
func (o *opTrace) begin(name string) int {
	if o == nil {
		return -1
	}
	if len(o.spans) > maxChildren {
		panic("puntbench: more child spans than maxChildren")
	}
	root := &o.spans[0]
	o.spans = append(o.spans, span{Name: name, ID: root.ID + len(o.spans), Parent: root.ID, Op: root.Op, Start: o.t.now()})
	return len(o.spans) - 1
}

// end closes a span opened by begin.
func (o *opTrace) end(h int) {
	if o == nil {
		return
	}
	o.spans[h].End = o.t.now()
}

// annotate attaches counters learnt after the span closed.
func (o *opTrace) annotate(h int, c counters) {
	if o == nil {
		return
	}
	if o.spans[h].Counters == nil {
		o.spans[h].Counters = counters{}
	}
	for k, v := range c {
		o.spans[h].Counters[k] = v
	}
}

// finish closes the root span and hands the op's spans to the tracer.
func (o *opTrace) finish(c counters) {
	if o == nil {
		return
	}
	o.spans[0].End = o.t.now()
	o.spans[0].Counters = c
	o.t.add(o.spans)
}

// check records a post-run output check as a root span named "verify".
func (t *tracer) check(start int64, ok bool) {
	if t == nil {
		return
	}
	id, _ := t.reserve(1, false)
	failed := int64(0)
	if !ok {
		failed = 1
	}
	t.add([]span{{Name: "verify", ID: id, Start: start, End: t.now(), Counters: counters{"failed": failed}}})
}

// annotateStats attaches a synthesis's Stats to its span.
func (o *opTrace) annotateStats(h int, st *punt.Stats, resolved bool) {
	if o == nil {
		return
	}
	o.annotate(h, statsCounters(st, resolved))
}

// statsCounters carries the public Stats of a synthesis on its span: the
// paper's Table 1 columns, the wall time of its attempts (which, unlike
// Total, includes a CSC repair), the segment size, the refinement counters
// and the CSC repair counters.
func statsCounters(st *punt.Stats, resolved bool) counters {
	var attempts time.Duration
	for _, a := range st.Attempts {
		attempts += a.Elapsed
	}
	c := counters{
		"attempts_ns":           int64(attempts),
		"unf_ns":                int64(st.UnfTime),
		"syn_ns":                int64(st.SynTime),
		"esp_ns":                int64(st.EspTime),
		"total_ns":              int64(st.Total),
		"events":                int64(st.Events),
		"conditions":            int64(st.Conditions),
		"cutoffs":               int64(st.Cutoffs),
		"terms_refined":         int64(st.TermsRefined),
		"signals_refined":       int64(st.SignalsRefined),
		"csc_signals_inserted":  int64(st.CSCSignalsInserted),
		"csc_iterations":        int64(st.CSCIterations),
		"csc_candidates_failed": int64(st.CSCCandidatesFailed),
		"csc_states_reused":     int64(st.CSCStatesReused),
		"csc_states_expanded":   int64(st.CSCStatesExpanded),
		"csc_full_rebuilds":     int64(st.CSCFullRebuilds),
	}
	if resolved {
		c["resolved"] = 1
	}
	return c
}

// selfTimes returns every span's duration minus the part of its interval
// covered by its children, keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkTree reports the first way the spans fail to form a well-formed
// tree: a missing parent, a child outside its parent's interval, or a
// negative self time.
func checkTree(spans []span) error {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) belongs to op %d, its parent to op %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	for id, t := range selfTimes(spans) {
		if t < 0 {
			return fmt.Errorf("span %d has negative self time %d ns", id, t)
		}
	}
	return nil
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
