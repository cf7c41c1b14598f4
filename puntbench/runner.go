package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one entry of the registry: a name, the reason it is measured,
// how its load is offered, and a generator that builds its inputs from the
// seed together with the op that consumes them.
type workload struct {
	name string
	why  string
	loop string
	// setup builds the workload's inputs and state; the runner times it.
	setup func(ctx context.Context, cfg setupConfig) (instance, error)
}

// setupConfig is what a workload's inputs are derived from.
type setupConfig struct {
	seed int64
	// span is the total load duration, warm-up included; the open-loop
	// workload sizes its arrival schedule from it.
	span time.Duration
	// golden maps fig6 inputs to the SHA-256 of their equations.
	golden map[string]string
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the untimed warm-up block and then the timed blocks.
	measure(ctx context.Context, p plan) (*runData, error)
	close()
}

// plan is the block structure of one run.
type plan struct {
	warmup time.Duration
	block  time.Duration
	blocks int
	// tr records spans in traced blocks; nil for an untraced run.
	tr *tracer
}

// traced reports whether measured block b records spans: a traced run
// alternates untraced and traced blocks, so both see the same drift and
// their difference is the tracing overhead.
func (p plan) traced(b int) bool { return p.tr != nil && b%2 == 1 }

// newPlan splits the measured time into blocks after a warm-up a tenth
// as long.
func newPlan(seconds float64, tr *tracer) plan {
	blocks := 5
	if tr != nil {
		blocks = 6
	}
	total := time.Duration(seconds * float64(time.Second))
	blk := total / time.Duration(blocks)
	return plan{warmup: total / 10, block: blk, blocks: blocks, tr: tr}
}

// sample is one measured op that succeeded.
type sample struct {
	input   int
	traced  bool
	latency time.Duration
}

// block holds one timed block's totals.
type block struct {
	traced bool
	// ops counts ops that completed and passed their output check.
	ops int
	// span is the time spent inside the block's ops.
	span time.Duration
	usage
}

// usage is a snapshot, or a difference of two, of the process counters a
// block is charged with.
type usage struct {
	cpu    time.Duration // user + system CPU of the whole process
	alloc  uint64        // bytes allocated on the heap
	gcs    uint64        // completed GC cycles
	gcCPU  float64       // CPU seconds the runtime attributes to the GC
	allCPU float64       // CPU seconds the runtime accounts for in total
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readUsage snapshots the process counters without stopping the world.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
		allCPU: s[3].Value.Float64(),
	}
}

// charge adds the counters spent between two snapshots.
func (u *usage) charge(from, to usage) {
	u.cpu += to.cpu - from.cpu
	u.alloc += to.alloc - from.alloc
	u.gcs += to.gcs - from.gcs
	u.gcCPU += to.gcCPU - from.gcCPU
	u.allCPU += to.allCPU - from.allCPU
}

// runData is everything a run measured, before it is reduced to metrics.
type runData struct {
	// fixed lists the seed-independent inputs latency_geomean_ms is taken
	// over.
	fixed   []int
	samples []sample // measured ops that succeeded; warm-up excluded
	blocks  []block

	attempted int // ops run, warm-up included
	failed    int // ops that failed or whose output check failed
	checked   int // output checks made, per op and after the run
	checkFail int // output checks that failed
	literals  int // literals over the seed-independent synthesized inputs
	// layer holds per-layer numbers only the workload can observe (cache
	// tiers, server counters).
	layer map[string]float64
}

// fail records a failed op or check, printing the first few to stderr.
func (d *runData) fail(format string, args ...any) {
	if d.failed < 5 {
		fmt.Fprintf(os.Stderr, "puntbench: "+format+"\n", args...)
	}
	d.failed++
}

// library is a closed-loop workload: one client runs the inputs in rounds
// and times every op on its own.
type library struct {
	names []string
	fixed []int
	// round lists the inputs of round r, in order; it is called once for
	// each r = 0, 1, 2, ... in turn, outside the timer.
	round func(r int) []int
	// op is the timed call.
	op func(ctx context.Context, in int, o *opTrace) (any, error)
	// check examines an op's output outside the timer; nil for none.
	check func(in int, out any) error
	// begin, when set, runs when the warm-up ends.
	begin func()
	// finish runs the post-run output checks.
	finish func(ctx context.Context, d *runData, tr *tracer)
	// literals sums the literals of the seed-independent inputs.
	literals func() int
}

func (l *library) close() {}

// measure runs whole rounds in every block, so each block sees the same
// mix of inputs however long its inputs take.
func (l *library) measure(ctx context.Context, p plan) (*runData, error) {
	d := &runData{fixed: l.fixed}
	r := 0
	for b := -1; b < p.blocks; b++ {
		length := p.block
		if b < 0 {
			length = p.warmup
		}
		if b == 0 && l.begin != nil {
			l.begin()
		}
		blk := block{traced: b >= 0 && p.traced(b)}
		var tr *tracer
		if blk.traced {
			tr = p.tr
		}
		for ; blk.span < length; r++ {
			if err := l.runRound(ctx, l.round(r), b, tr, &blk, d); err != nil {
				return nil, err
			}
		}
		if b >= 0 {
			d.blocks = append(d.blocks, blk)
		}
	}
	if l.finish != nil {
		l.finish(ctx, d, p.tr)
	}
	if l.literals != nil {
		d.literals = l.literals()
	}
	return d, nil
}

// runRound runs one round's ops in block b, charging them to blk.
func (l *library) runRound(ctx context.Context, round []int, b int, tr *tracer, blk *block, d *runData) error {
	for _, in := range round {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("run stopped: %w", err)
		}
		o := startOp(tr)
		u0 := readUsage()
		t0 := time.Now()
		out, err := l.op(ctx, in, o)
		lat := time.Since(t0)
		u1 := readUsage()
		o.finish(counters{"input": int64(in)})
		d.attempted++
		blk.span += lat
		blk.charge(u0, u1)
		if err == nil && l.check != nil {
			d.checked++
			if err = l.check(in, out); err != nil {
				d.checkFail++
			}
		}
		if err != nil {
			d.fail("%s: %v", l.names[in], err)
			continue
		}
		blk.ops++
		if b >= 0 {
			d.samples = append(d.samples, sample{input: in, traced: blk.traced, latency: lat})
		}
	}
	return nil
}

// verifyCheck makes one post-run output check and counts it; a traced run
// records it as a "verify" span.
func verifyCheck(d *runData, tr *tracer, what string, check func() error) {
	var start int64
	if tr != nil {
		start = tr.now()
	}
	err := check()
	tr.check(start, err == nil)
	d.checked++
	if err != nil {
		d.checkFail++
		d.fail("%s: %v", what, err)
	}
}

// hashString returns the hex SHA-256 of s.
func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd reduces an untraced run to the end-to-end metrics.  Counts per
// block are reduced to the median over blocks; latencies are pooled.
func endToEnd(d *runData, setup time.Duration) map[string]metric {
	var rate, cpu, alloc []float64
	for _, b := range d.blocks {
		if b.ops == 0 {
			continue
		}
		rate = append(rate, float64(b.ops)/b.span.Seconds())
		cpu = append(cpu, float64(b.cpu)/1e6/float64(b.ops))
		alloc = append(alloc, float64(b.alloc)/1e6/float64(b.ops))
	}
	return map[string]metric{
		"setup_s":            {setup.Seconds(), "s"},
		"ops_per_s":          {median(rate), "ops/s"},
		"latency_p50_ms":     {quantile(inputSmoothed(d), 0.5), "ms"},
		"latency_p90_ms":     {quantile(latencies(d), 0.9), "ms"},
		"latency_geomean_ms": {geomean(inputMedians(d, d.fixed)), "ms"},
		"cpu_ms_per_op":      {median(cpu), "ms"},
		"alloc_mb_per_op":    {median(alloc), "MB"},
	}
}

// latencies returns the sorted latencies, in ms, of the untraced samples.
func latencies(d *runData) []float64 {
	var out []float64
	for _, s := range d.samples {
		if !s.traced {
			out = append(out, ms(s.latency))
		}
	}
	return sortedCopy(out)
}

// byInput groups the untraced latencies, in ms, by input.
func byInput(d *runData) map[int][]float64 {
	by := make(map[int][]float64)
	for _, s := range d.samples {
		if !s.traced {
			by[s.input] = append(by[s.input], ms(s.latency))
		}
	}
	return by
}

// inputSmoothed returns the untraced latencies, sorted, each replaced by
// the median latency of its input.  Their median is latency_p50_ms: on
// fig6 and segments, whose rounds hold four inputs far apart, the plain
// median falls between the slowest sample of one input and the fastest of
// the next, and it spread by 13% over ten runs where this one spreads as
// little as the inputs' medians do.
func inputSmoothed(d *runData) []float64 {
	var out []float64
	for _, xs := range byInput(d) {
		m := median(xs)
		for range xs {
			out = append(out, m)
		}
	}
	return sortedCopy(out)
}

// inputMedians returns the median untraced latency, in ms, of every input
// in ids that has untraced samples.
func inputMedians(d *runData, ids []int) []float64 {
	by := byInput(d)
	var out []float64
	for _, in := range ids {
		if xs := by[in]; len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// overhead is the tracing overhead: the geometric mean, over inputs seen
// in both kinds of block, of the traced median latency over the untraced
// one, minus one.
func overhead(d *runData) float64 {
	traced := make(map[int][]float64)
	untraced := make(map[int][]float64)
	for _, s := range d.samples {
		if s.traced {
			traced[s.input] = append(traced[s.input], ms(s.latency))
		} else {
			untraced[s.input] = append(untraced[s.input], ms(s.latency))
		}
	}
	var ratios []float64
	for in, t := range traced {
		if u := untraced[in]; len(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	sort.Float64s(ratios) // the sum of logs, and so the result, follows the order
	if len(ratios) == 0 {
		return math.NaN()
	}
	return geomean(ratios) - 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
