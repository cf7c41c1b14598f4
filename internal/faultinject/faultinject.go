// Package faultinject provides seeded, schedule-driven fault injection for
// the synthesis pipeline, plus a goroutine-leak checker for tests.
//
// An Injector carries a set of Rules, each naming an operation checkpoint
// (one of the Op* constants compiled into the engines and the facade) and an
// Action to take when the checkpoint has been hit a configured number of
// times: return an injected error, panic, sleep, or flag an entry as
// corrupted.  The injector travels through the context, so injection is
// strictly per-request: a context without an injector pays a single Value
// lookup per checkpoint and nothing else, and production callers never see
// injected faults.
//
// The chaos sweep in the root package drives hundreds of seeded Schedules
// through Synthesize/Batch/portfolio and asserts the facade never crashes,
// never leaks goroutines and never caches a faulted result.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The operation checkpoints compiled into the pipeline.  Engine checkpoints
// sit inside the loops that already check context cancellation; the facade
// checkpoints bracket dispatch and the result-cache accesses.
const (
	// OpUnfoldPop: the unfolding builder's possible-extension loop.
	OpUnfoldPop = "unfolding.pop"
	// OpStategraphExpand: the explicit state-graph BFS expansion loop.
	OpStategraphExpand = "stategraph.expand"
	// OpExplicitCovers: the explicit baseline's per-signal cover loop.
	OpExplicitCovers = "explicit.covers"
	// OpSymbolicFixpoint: the symbolic baseline's image-computation loop.
	OpSymbolicFixpoint = "symbolic.fixpoint"
	// OpCoreCovers: the unfolding flow's per-signal cover loop.
	OpCoreCovers = "core.covers"
	// OpFacadeSynthesize: facade admission, before backend dispatch.
	OpFacadeSynthesize = "facade.synthesize"
	// OpCacheGet / OpCachePut: the facade's result-cache accesses.  A fault
	// on either degrades to a cache miss (or a skipped store) instead of
	// failing the request.
	OpCacheGet = "cache.get"
	OpCachePut = "cache.put"
	// OpDiskGet / OpDiskPut: the persistent result store's file accesses.  A
	// cancel fault degrades to a miss (or a skipped store); a corrupt fault
	// on put writes a deliberately damaged entry, which later reads must
	// detect and treat as a miss.
	OpDiskGet = "diskstore.get"
	OpDiskPut = "diskstore.put"
	// OpSingleFlight: the server's in-flight request deduplication.  A fault
	// here makes the request bypass deduplication and synthesize solo —
	// dedup is an optimisation, never a point of failure.
	OpSingleFlight = "server.singleflight"
)

// EngineOps are the checkpoints inside backend synthesis runs, where an
// injected panic is recovered by the dispatch layer.  Schedule only assigns
// ActPanic to these.
var EngineOps = []string{OpUnfoldPop, OpStategraphExpand, OpExplicitCovers, OpSymbolicFixpoint, OpCoreCovers}

// FacadeOps are the checkpoints in facade code outside the backends, where a
// panic would be a real bug: Schedule assigns only non-panicking actions.
var FacadeOps = []string{OpFacadeSynthesize, OpCacheGet, OpCachePut, OpDiskGet, OpDiskPut, OpSingleFlight}

// AllOps lists every checkpoint, for schedule generation.
var AllOps = append(append([]string{}, EngineOps...), FacadeOps...)

// ErrInjected is the error returned by a checkpoint when a cancellation rule
// fires; errors.Is-matchable through whatever diagnostic wraps it.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedPanic is the value a checkpoint panics with when a panic rule
// fires, so recovery layers (and tests) can tell a drill from a real crash.
type InjectedPanic struct{ Op string }

func (p InjectedPanic) String() string { return "faultinject: injected panic at " + p.Op }

// Action selects what a firing rule does.
type Action uint8

// The injectable faults.
const (
	// ActCancel makes the checkpoint return ErrInjected.
	ActCancel Action = iota + 1
	// ActPanic makes the checkpoint panic with an InjectedPanic.
	ActPanic
	// ActDelay makes the checkpoint sleep for Rule.Delay.
	ActDelay
	// ActCorrupt fires only through Corrupt (Check ignores it): the caller
	// owning the checkpoint simulates a corrupted entry.
	ActCorrupt
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActCancel:
		return "cancel"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Rule arms one fault: at the AfterN-th hit of Op (counting from 0), perform
// Act.  Each rule fires exactly once.
type Rule struct {
	Op     string
	AfterN int64
	Act    Action
	Delay  time.Duration // ActDelay only
}

// String renders the rule.
func (r Rule) String() string {
	return fmt.Sprintf("%s@%d:%s", r.Op, r.AfterN, r.Act)
}

// Injector is a set of armed rules with per-op hit counters.  Safe for
// concurrent use: portfolio contenders and batch workers hit checkpoints
// from many goroutines at once.
type Injector struct {
	mu     sync.Mutex
	rules  []Rule
	used   []bool
	counts map[string]int64
	fired  []string
}

// New returns an injector armed with the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, used: make([]bool, len(rules)), counts: map[string]int64{}}
}

// Schedule builds a reproducible random fault schedule: n rules drawn from
// the given ops with hit counts in [0, maxHits).  Panics are only armed on
// EngineOps — a panic at a facade checkpoint would be a genuine bug, not a
// simulated backend failure — and delays stay small so sweeps run fast.
func Schedule(seed int64, ops []string, n, maxHits int) *Injector {
	rng := rand.New(rand.NewSource(seed))
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		act := Action(1 + rng.Intn(4))
		if act == ActPanic && !isEngineOp(op) {
			act = ActCancel
		}
		rules = append(rules, Rule{
			Op:     op,
			AfterN: int64(rng.Intn(maxHits)),
			Act:    act,
			Delay:  time.Duration(1+rng.Intn(3)) * time.Millisecond,
		})
	}
	return New(rules...)
}

func isEngineOp(op string) bool {
	for _, e := range EngineOps {
		if e == op {
			return true
		}
	}
	return false
}

// hit advances the op's counter and returns the rule that fires now, if any.
func (i *Injector) hit(op string, corrupt bool) (Rule, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.counts[op]
	i.counts[op] = n + 1
	for idx, r := range i.rules {
		if i.used[idx] || r.Op != op || r.AfterN > n {
			continue
		}
		if (r.Act == ActCorrupt) != corrupt {
			continue
		}
		i.used[idx] = true
		i.fired = append(i.fired, r.String())
		return r, true
	}
	return Rule{}, false
}

// Check is the checkpoint the engines and the facade call (through the
// package-level Check): it fires due cancel/panic/delay rules for op.
func (i *Injector) Check(op string) error {
	r, ok := i.hit(op, false)
	if !ok {
		return nil
	}
	switch r.Act {
	case ActPanic:
		panic(InjectedPanic{Op: op})
	case ActDelay:
		time.Sleep(r.Delay)
		return nil
	default:
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, op, r.AfterN)
	}
}

// Corrupt reports whether a corruption rule fires for op now; the caller
// simulates the corrupted entry itself.
func (i *Injector) Corrupt(op string) bool {
	if i == nil {
		return false
	}
	r, ok := i.hit(op, true)
	return ok && r.Act == ActCorrupt
}

// Fired returns the rules that have fired so far, in firing order.
func (i *Injector) Fired() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.fired...)
}
