package unfolding

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"punt/internal/faultinject"
	"punt/internal/petri"
)

// pePool is the worker pool behind Options.Workers: a fixed set of lanes —
// lane 0 is the goroutine running Build, lanes 1..n-1 are persistent worker
// goroutines — that execute one round of index-addressed tasks at a time.
// Rounds are synchronous: runRound publishes a task body and count, every
// lane claims indices from a shared atomic counter, and the round ends only
// when every lane has drained.  Between rounds the pool is quiescent and the
// builder is touched exclusively by the Build goroutine, so round tasks may
// freely read any builder state that the other tasks of the same round do
// not write.
//
// Determinism: workers never push possible extensions themselves.  Each
// search task records its discoveries in a per-task slot, and the Build
// goroutine merges the slots in task order — exactly the order the
// sequential search would have visited them — through pushPE, so dedup
// order, seq tie-breaks, and therefore the whole segment are byte-identical
// to the sequential build.
type pePool struct {
	b     *builder
	inj   *faultinject.Injector
	lanes int

	// Per-lane chooseCoset scratch; lane 0 belongs to the Build goroutine.
	scratch []searchScratch

	// Round state, published by runRound before bumping seq.  chunk is the
	// contiguous block of task indices a lane claims per atomic increment:
	// ceil(n/lanes), so one claim hands a lane its whole share of the round
	// and the counter is touched once per lane instead of once per task —
	// the per-task claim overhead was measurable (~5-25%) on small specs.
	task  func(lane, i int)
	n     int
	chunk int
	next  atomic.Int64
	busy  atomic.Int64 // lanes that have not finished draining this round
	seq   atomic.Uint64

	// Parking: a worker with nothing to do spins briefly, then flags itself
	// parked and blocks on its wake channel; runRound and close wake parked
	// lanes with a non-blocking send (the channels are buffered, so a stale
	// token at worst causes one spurious loop iteration).
	parked []atomic.Bool
	wake   []chan struct{}
	quit   atomic.Bool
	wg     sync.WaitGroup

	// First panic recovered from a round task; re-raised on the Build
	// goroutine once the round is quiescent, so the dispatch layer's usual
	// recovery (KindPanic) applies and no worker is left wedged.
	panicMu  sync.Mutex
	panicVal any

	// Reusable per-round storage for searchExtensions.
	tasks []peSearchTask
	found [][]foundPE
	errs  []error

	// Reusable per-shard slots for the co-relation round: the last unsafe
	// place each shard observed (placeNone when the shard saw none).
	coUnsafe []petri.PlaceID

	// Result slots of the cut-set task of the co-relation round.
	cutSet, consumedSet *idSet
	cut                 []*Condition
	marking             petri.Marking
}

// placeNone marks an empty coUnsafe slot; real place IDs are non-negative.
const placeNone = petri.PlaceID(-1)

// parkSpin is how many Gosched iterations a lane spins before parking.  It
// is deliberately tiny: on a loaded or single-CPU machine spinning only
// steals time from the lanes doing real work.
const parkSpin = 32

// coShardMinWords is the minimum width of b.common (in 64-bit words) before
// the reverse co-relation update is worth sharding; below it the coordinator
// updates the rows inline.
const coShardMinWords = 16

func newPEPool(b *builder, workers int, inj *faultinject.Injector) *pePool {
	p := &pePool{
		b:       b,
		inj:     inj,
		lanes:   workers,
		scratch: make([]searchScratch, workers),
		parked:  make([]atomic.Bool, workers),
		wake:    make([]chan struct{}, workers),
	}
	for w := 1; w < workers; w++ {
		p.wake[w] = make(chan struct{}, 1)
		p.wg.Add(1)
		//puntlint:ignore gohygiene lane panics are recovered per round task and re-raised on the Build goroutine (panicVal); outside the task runner the lane only parks and polls
		go func(lane int) {
			defer p.wg.Done()
			p.worker(lane)
		}(w)
	}
	return p
}

// close shuts the worker lanes down and waits for them to exit, so tests
// guarded by faultinject.LeakCheck see no straggling goroutines.  It must be
// called between rounds (Build's defer satisfies this: runRound only returns
// quiescent).
func (p *pePool) close() {
	p.quit.Store(true)
	for w := 1; w < p.lanes; w++ {
		select {
		case p.wake[w] <- struct{}{}:
		default:
		}
	}
	p.wg.Wait()
}

// worker is the lane body: drain each round exactly once, park in between.
func (p *pePool) worker(lane int) {
	var last uint64
	for {
		seq := p.seq.Load()
		if seq == last {
			if !p.await(lane, last) {
				return
			}
			continue
		}
		last = seq
		p.drain(lane)
	}
}

// await blocks the lane until a round newer than last begins or the pool
// closes; it returns false on close.
func (p *pePool) await(lane int, last uint64) bool {
	for spin := 0; ; spin++ {
		if p.quit.Load() {
			return false
		}
		if p.seq.Load() != last {
			return true
		}
		if spin < parkSpin {
			runtime.Gosched()
			continue
		}
		p.parked[lane].Store(true)
		// Re-check after publishing the parked flag: a round (or close) that
		// started in between is guaranteed to either be visible here or to
		// see the flag and send a wake token.
		if p.seq.Load() == last && !p.quit.Load() {
			<-p.wake[lane]
		}
		p.parked[lane].Store(false)
	}
}

// drain claims and runs tasks of the current round until none remain: one
// contiguous block of p.chunk indices per claim, so a lane wakes into its
// whole share of the round instead of fighting the counter task by task.
// Task results are indexed slots merged in task order by the coordinator, so
// block claiming cannot perturb the output.  A panicking task is recovered
// and parked in panicVal; the lane still counts itself done so the round
// terminates, and runRound re-raises the panic on the Build goroutine.
func (p *pePool) drain(lane int) {
	defer p.busy.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicVal == nil {
				p.panicVal = r
			}
			p.panicMu.Unlock()
		}
	}()
	chunk := p.chunk
	for {
		lo := int(p.next.Add(int64(chunk))) - chunk
		if lo >= p.n {
			return
		}
		hi := lo + chunk
		if hi > p.n {
			hi = p.n
		}
		for i := lo; i < hi; i++ {
			p.task(lane, i)
		}
	}
}

// runRound runs task(lane, i) for every i in [0, n) across all lanes and
// returns once every lane has drained.  The coordinator (lane 0) claims
// tasks like any worker.  A panic recovered from any lane is re-raised here,
// after the pool is quiescent.
func (p *pePool) runRound(n int, task func(lane, i int)) {
	if n <= 0 {
		return
	}
	p.task, p.n = task, n
	p.chunk = (n + p.lanes - 1) / p.lanes
	p.next.Store(0)
	p.busy.Store(int64(p.lanes))
	p.seq.Add(1)
	for w := 1; w < p.lanes; w++ {
		if p.parked[w].Load() {
			select {
			case p.wake[w] <- struct{}{}:
			default:
			}
		}
	}
	p.drain(0)
	for p.busy.Load() != 0 {
		runtime.Gosched()
	}
	p.task = nil
	if v := p.panicVal; v != nil {
		p.panicVal = nil
		panic(v)
	}
}

// finishParallel is the pool-sharded twin of finishSequential: the reverse
// co-relation update is split by word ranges of b.common — every shard owns
// a disjoint range of condition IDs, so no co row is written by two lanes —
// while the cut/consumed-set derivation runs as one more task of the same
// round.  The forward rows are word-level copies and stay on the
// coordinator.  The merged result is bit-for-bit the sequential one: set
// bits are order-independent, and the unsafe-place report keeps the
// sequential last-wins choice by taking the highest shard's last hit.
func (b *builder) finishParallel(pe *possibleExtension, e *Event) error {
	p := b.pool
	common := &b.common
	for _, c := range e.Postset {
		co := b.co[c.ID]
		co.copyFrom(common)
		for _, sib := range e.Postset {
			if sib != c {
				co.add(sib.ID)
			}
		}
	}

	words := len(common.words)
	shards := p.lanes
	if shards > words {
		shards = words
	}
	if words < coShardMinWords || shards < 2 {
		return b.finishSmall(pe, e)
	}

	p.coUnsafe = p.coUnsafe[:0]
	for s := 0; s < shards; s++ {
		p.coUnsafe = append(p.coUnsafe, placeNone)
	}
	per := (words + shards - 1) / shards
	post := e.Postset
	// Task 0 derives the final state; tasks 1..shards update the co rows of
	// one word range each.
	p.runRound(shards+1, func(lane, i int) {
		if i == 0 {
			cutSet, consumedSet := b.buildCutSets(pe, e)
			cut := make([]*Condition, 0, cutSet.count())
			cutSet.forEach(func(id int) { cut = append(cut, b.u.Conditions[id]) })
			p.cutSet, p.consumedSet = cutSet, consumedSet
			p.cut, p.marking = cut, markingOfCut(cut)
			return
		}
		lo, hi := (i-1)*per, i*per
		if hi > words {
			hi = words
		}
		shard := &idSet{words: common.words[lo:hi]}
		shard.forEach(func(off int) {
			otherID := lo*64 + off
			other := b.u.Conditions[otherID]
			row := b.co[otherID]
			for _, c := range post {
				if other.Place == c.Place {
					p.coUnsafe[i-1] = c.Place
				}
				row.add(c.ID)
			}
		})
	})
	for s := shards - 1; s >= 0; s-- {
		if p.coUnsafe[s] != placeNone {
			return &UnsafeError{
				Place:      b.net.PlaceName(p.coUnsafe[s]),
				Transition: b.g.TransitionString(pe.transition),
				Tokens:     2,
			}
		}
	}
	cutSet, consumedSet, cut, marking := p.cutSet, p.consumedSet, p.cut, p.marking
	p.cutSet, p.consumedSet, p.cut, p.marking = nil, nil, nil, petri.Marking{}
	return b.commitState(e, cutSet, consumedSet, cut, marking)
}

// finishSmall completes a small event inline: the co-relation footprint is
// too narrow for sharding to pay for a round barrier.
func (b *builder) finishSmall(pe *possibleExtension, e *Event) error {
	common := &b.common
	var unsafePlace petri.PlaceID
	unsafe := false
	common.forEach(func(otherID int) {
		other := b.u.Conditions[otherID]
		row := b.co[otherID]
		for _, c := range e.Postset {
			if other.Place == c.Place {
				unsafe = true
				unsafePlace = c.Place
			}
			row.add(c.ID)
		}
	})
	if unsafe {
		return &UnsafeError{
			Place:      b.net.PlaceName(unsafePlace),
			Transition: b.g.TransitionString(pe.transition),
			Tokens:     2,
		}
	}
	cutSet, consumedSet := b.buildCutSets(pe, e)
	cut := make([]*Condition, 0, cutSet.count())
	cutSet.forEach(func(id int) { cut = append(cut, b.u.Conditions[id]) })
	return b.commitState(e, cutSet, consumedSet, cut, markingOfCut(cut))
}

// peSearchTask is one unit of the possible-extension fan-out: enumerate the
// extensions of transition t whose preset contains the fresh condition c.
type peSearchTask struct {
	c *Condition
	t petri.TransitionID
}

// foundPE is a discovered extension, preset already sorted by condition ID.
type foundPE struct {
	t      petri.TransitionID
	preset []*Condition
}

// searchExtensions is the pool-sharded twin of the findExtensionsWith loop
// in commitState: the (condition, transition) search tasks of the fresh
// event fan out across the lanes, and the discoveries are merged on the
// Build goroutine in task order through pushPE.  Injected faults
// (OpUnfoldShard) land mid-shard on worker goroutines: an error is recorded
// in the task's slot and returned — lowest task index first, so the reported
// fault is deterministic — after the round has fully drained; a panic is
// re-raised by runRound once the pool is quiescent.
func (p *pePool) searchExtensions(e *Event) error {
	b := p.b
	p.tasks = p.tasks[:0]
	for _, c := range e.Postset {
		for _, t := range b.net.PlacePost(c.Place) {
			p.tasks = append(p.tasks, peSearchTask{c: c, t: t})
		}
	}
	n := len(p.tasks)
	if n == 0 {
		return nil
	}
	if n == 1 && p.inj == nil {
		// A single task gains nothing from a round barrier.
		st := p.tasks[0]
		b.searchTransition(st.t, st.c, &p.scratch[0], b.emitPE)
		return nil
	}
	for len(p.found) < n {
		p.found = append(p.found, nil)
		p.errs = append(p.errs, nil)
	}
	p.runRound(n, func(lane, i int) {
		if p.inj != nil {
			if err := p.inj.Check(faultinject.OpUnfoldShard); err != nil {
				p.errs[i] = err
				return
			}
		}
		st := p.tasks[i]
		p.found[i] = p.found[i][:0]
		b.searchTransition(st.t, st.c, &p.scratch[lane], func(t petri.TransitionID, c *Condition, chosen []*Condition) {
			preset := make([]*Condition, 0, len(chosen)+1)
			preset = append(preset, c)
			preset = append(preset, chosen...)
			sort.Slice(preset, func(x, y int) bool { return preset[x].ID < preset[y].ID })
			p.found[i] = append(p.found[i], foundPE{t: t, preset: preset})
		})
	})
	var firstErr error
	for i := 0; i < n; i++ {
		if firstErr == nil && p.errs[i] != nil {
			firstErr = p.errs[i]
		}
		p.errs[i] = nil
		for _, f := range p.found[i] {
			b.pushPE(f.t, f.preset)
		}
		p.found[i] = p.found[i][:0]
	}
	return firstErr
}
