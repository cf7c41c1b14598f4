package unfolding

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	"punt/internal/bitvec"
	"punt/internal/faultinject"
	"punt/internal/petri"
	"punt/internal/stg"
)

// ErrNotSafe is returned when the underlying net is not 1-safe, which the
// STG-unfolding segment (and speed-independent synthesis in general)
// requires.
var ErrNotSafe = errors.New("unfolding: the net is not safe")

// ErrEventLimit is returned when the segment exceeds the configured maximum
// number of events.
var ErrEventLimit = errors.New("unfolding: event limit exceeded")

// UnsafeError reports where 1-safeness is violated: the place that receives a
// second token and, unless the initial marking itself is unsafe, the
// transition whose firing overloads it.  It wraps ErrNotSafe, so
// errors.Is(err, ErrNotSafe) keeps working.
type UnsafeError struct {
	Place      string
	Transition string // empty when the initial marking is already unsafe
	Tokens     int    // token count on Place when the violation was detected
}

func (e *UnsafeError) Error() string {
	if e.Transition == "" {
		return fmt.Sprintf("%v: place %q initially holds %d tokens", ErrNotSafe, e.Place, e.Tokens)
	}
	return fmt.Sprintf("%v: firing %s marks the already marked place %q", ErrNotSafe, e.Transition, e.Place)
}

func (e *UnsafeError) Unwrap() error { return ErrNotSafe }

// EventLimitError reports that the segment construction was aborted after
// exceeding its event budget.  It wraps ErrEventLimit.
type EventLimitError struct {
	Events int
	Limit  int
}

func (e *EventLimitError) Error() string {
	return fmt.Sprintf("%v (%d events, limit %d)", ErrEventLimit, e.Events, e.Limit)
}

func (e *EventLimitError) Unwrap() error { return ErrEventLimit }

// InconsistencyError reports a violation of consistent state assignment
// detected while assigning binary codes to events.
type InconsistencyError struct {
	Transition string
	Detail     string
}

func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("unfolding: inconsistent state assignment at %s: %s", e.Transition, e.Detail)
}

// Options configures the construction of the STG-unfolding segment.
type Options struct {
	// MaxEvents aborts construction with ErrEventLimit when the number of
	// non-root events exceeds this value (0 means 1,000,000).
	MaxEvents int
	// DebugCheck cross-validates the incremental cut/code/marking engine
	// against a full replay of every local configuration (the original
	// construction).  It is quadratic and meant for tests only.
	DebugCheck bool
	// Progress, when non-nil, is called periodically with the number of
	// events instantiated so far.  It must be cheap; it is called from the
	// goroutine running Build, with monotonic event counts.
	Progress func(events int)
}

// cancelCheckInterval is how many possible-extension pops go by between
// context cancellation checks (and Progress callbacks).  Checking on every pop
// would put a synchronised load on the hottest loop of the system for no
// benefit: cancellation only needs to be prompt on the human timescale.
const cancelCheckInterval = 256

// possibleExtension is a transition instance that may be appended to the
// segment: a transition together with a co-set of conditions forming its
// preset.
type possibleExtension struct {
	transition  petri.TransitionID
	preset      []*Condition
	parentLocal *idSet // union of the local configurations of the preset producers
	size        int    // |[e]| of the event this extension would create
	seq         int    // insertion sequence, used as a deterministic tie-break
}

type peHeap []*possibleExtension

func (h peHeap) Len() int { return len(h) }
func (h peHeap) Less(i, j int) bool {
	if h[i].size != h[j].size {
		return h[i].size < h[j].size
	}
	return h[i].seq < h[j].seq
}
func (h peHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *peHeap) Push(x any)   { *h = append(*h, x.(*possibleExtension)) }
func (h *peHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// peFingerprint identifies a possible extension exactly: the transition plus
// the sorted preset condition IDs.  Entries live in hash buckets so that the
// dedup test never suffers a false positive on a hash collision.
type peFingerprint struct {
	transition petri.TransitionID
	preset     []int32
}

func (f peFingerprint) matches(t petri.TransitionID, preset []*Condition) bool {
	if f.transition != t || len(f.preset) != len(preset) {
		return false
	}
	for i, c := range preset {
		if f.preset[i] != int32(c.ID) {
			return false
		}
	}
	return true
}

type builder struct {
	g     *stg.STG
	net   *petri.Net
	u     *Unfolding
	opts  Options
	queue peHeap
	seq   int

	// seenPE deduplicates possible extensions by 64-bit hash with exact
	// fingerprint verification inside each bucket.
	seenPE map[uint64][]peFingerprint
	// states maps hash(final marking, binary code) to the events reaching
	// that state; bucket entries are verified with full marking/code
	// equality, so a hash collision can never produce a wrong cut-off.
	states map[uint64][]*Event
	// placeConds[p] is the bit set of live condition IDs with place label p:
	// conditions produced by non-cut-off events (or the root).  chooseCoset
	// prunes its candidates by intersecting these sets with co-sets instead
	// of rescanning per-place condition lists.
	placeConds map[petri.PlaceID]*idSet
	// co[c.ID] is the set of condition IDs concurrent with condition c.
	co []*idSet

	// cutSets[e.ID] / consumedSets[e.ID] hold, in bit-set form, the cut of
	// [e] and the conditions consumed by [e].  They drive the incremental
	// state engine and are discarded with the builder after construction.
	cutSets      []*idSet
	consumedSets []*idSet

	// Scratch storage reused across instantiate/chooseCoset calls.
	common idSet         // intersection of the preset co-sets
	diff   idSet         // parentLocal \ dominant.Local in parentCodeOf
	search searchScratch // per-recursion-depth scratch for chooseCoset
}

// Build constructs the STG-unfolding segment of the STG.  The construction
// checks ctx periodically and aborts with the context's error when it is
// cancelled.
func Build(ctx context.Context, g *stg.STG, opts Options) (*Unfolding, error) {
	if !g.HasInitialState() {
		if err := g.InferInitialState(0); err != nil {
			return nil, err
		}
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 1000000
	}
	b := &builder{
		g:          g,
		net:        g.Net(),
		opts:       opts,
		seenPE:     map[uint64][]peFingerprint{},
		states:     map[uint64][]*Event{},
		placeConds: map[petri.PlaceID]*idSet{},
	}
	b.u = &Unfolding{STG: g, bySignal: make([][]*Event, g.NumSignals())}

	if err := b.createRoot(); err != nil {
		return nil, err
	}
	pops := 0
	for b.queue.Len() > 0 {
		if pops%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := faultinject.Check(ctx, faultinject.OpUnfoldPop); err != nil {
				return nil, err
			}
			if b.opts.Progress != nil {
				b.opts.Progress(b.u.NumEvents())
			}
		}
		pops++
		pe := heap.Pop(&b.queue).(*possibleExtension)
		if err := b.instantiate(pe); err != nil {
			return nil, err
		}
		if b.u.NumEvents() > b.opts.MaxEvents {
			return nil, &EventLimitError{Events: b.u.NumEvents(), Limit: b.opts.MaxEvents}
		}
	}
	return b.u, nil
}

func (b *builder) createRoot() error {
	root := &Event{
		ID:      0,
		IsRoot:  true,
		Local:   newIDSet(),
		Size:    0,
		Code:    b.g.InitialState(),
		Marking: b.net.Initial(),
	}
	b.u.Root = root
	b.u.Events = append(b.u.Events, root)

	initial := b.net.Initial()
	for _, p := range initial.Places() {
		if initial.Tokens(p) > 1 {
			return &UnsafeError{Place: b.net.PlaceName(p), Tokens: initial.Tokens(p)}
		}
		c := b.newCondition(p, root)
		root.Postset = append(root.Postset, c)
		root.Cut = append(root.Cut, c)
	}
	// Initial conditions are pairwise concurrent.
	for _, c1 := range root.Postset {
		for _, c2 := range root.Postset {
			if c1 != c2 {
				b.co[c1.ID].add(c2.ID)
			}
		}
	}
	rootCut := newIDSet()
	for _, c := range root.Postset {
		rootCut.add(c.ID)
	}
	b.cutSets = append(b.cutSets, rootCut)
	b.consumedSets = append(b.consumedSets, newIDSet())

	b.putState(stateHash(root.Marking, root.Code), root)
	for _, c := range root.Postset {
		b.markLive(c)
	}
	for _, c := range root.Postset {
		b.findExtensionsWith(c)
	}
	return nil
}

func (b *builder) newCondition(p petri.PlaceID, producer *Event) *Condition {
	c := &Condition{ID: len(b.u.Conditions), Place: p, Producer: producer}
	b.u.Conditions = append(b.u.Conditions, c)
	b.co = append(b.co, newIDSet())
	return c
}

// markLive records the condition as a co-set candidate for future possible
// extensions.  Conditions produced by cut-off events are never marked live.
func (b *builder) markLive(c *Condition) {
	s := b.placeConds[c.Place]
	if s == nil {
		s = newIDSet()
		b.placeConds[c.Place] = s
	}
	s.add(c.ID)
}

// stateHash keys the cut-off detection table by final marking and binary code.
func stateHash(m petri.Marking, code bitvec.Vec) uint64 {
	const prime = 1099511628211
	h := m.Hash()
	h = (h ^ code.Hash()) * prime
	return h
}

// putState records the event as the canonical representative of its final
// state under the precomputed state hash.
func (b *builder) putState(h uint64, e *Event) {
	b.states[h] = append(b.states[h], e)
}

// lookupState returns the earlier event reaching the same final state, if
// any.  Bucket entries are verified with full equality: hashing is a speed
// optimisation, never a correctness shortcut.
func (b *builder) lookupState(h uint64, m petri.Marking, code bitvec.Vec) *Event {
	for _, prior := range b.states[h] {
		if prior.Code.Equal(code) && prior.Marking.Equal(m) {
			return prior
		}
	}
	return nil
}

// codeOfConfig computes the binary code reached by firing the given event set
// from the initial state.  It is the original full-replay implementation,
// retained as the cross-validation oracle for the incremental engine
// (Options.DebugCheck).
func (b *builder) codeOfConfig(set *idSet) bitvec.Vec {
	code := b.g.InitialState()
	set.forEach(func(id int) {
		e := b.u.Events[id]
		if e.IsRoot || e.label.IsDummy {
			return
		}
		code.Set(e.label.Signal, e.label.Dir == stg.Plus)
	})
	return code
}

// cutOfConfig computes the set of conditions marked after firing the given
// event set (which must be causally closed).  Like codeOfConfig it replays
// the whole configuration and exists only as the DebugCheck oracle for the
// incremental cut maintained in builder.cutSets.
func (b *builder) cutOfConfig(set *idSet) []*Condition {
	consumed := map[int]bool{}
	var produced []*Condition
	produced = append(produced, b.u.Root.Postset...)
	set.forEach(func(id int) {
		e := b.u.Events[id]
		for _, c := range e.Preset {
			consumed[c.ID] = true
		}
		produced = append(produced, e.Postset...)
	})
	var cut []*Condition
	for _, c := range produced {
		if !consumed[c.ID] {
			cut = append(cut, c)
		}
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i].ID < cut[j].ID })
	return cut
}

func markingOfCut(cut []*Condition) petri.Marking {
	m := petri.NewMarking()
	for _, c := range cut {
		m.Add(c.Place, 1)
	}
	return m
}

// parentCodeOf computes the binary code of the parent configuration (the
// union of the preset producers' local configurations) incrementally: it
// starts from the code of the dominant producer — the one with the largest
// local configuration — and applies only the signal toggles of the events the
// other producers add.  When one producer dominates (the common case: chains
// and join-free presets) this is O(1) instead of O(|[e]|).
func (b *builder) parentCodeOf(pe *possibleExtension) bitvec.Vec {
	var dom *Event
	for _, c := range pe.preset {
		p := c.Producer
		if dom == nil || p.Size > dom.Size {
			dom = p
		}
	}
	code := dom.Code.Clone()
	if dom.Size == pe.size-1 {
		return code // the dominant producer's local configuration is the parent
	}
	b.diff.copyFrom(pe.parentLocal)
	b.diff.andNotWith(dom.Local)
	b.diff.forEach(func(id int) {
		ev := b.u.Events[id]
		if ev.label.IsDummy {
			return
		}
		code.Set(ev.label.Signal, ev.label.Dir == stg.Plus)
	})
	return code
}

// buildCutSets derives the cut and consumed sets of the new event from its
// preset producers:
//
//	consumed([e]) = ∪ consumed([p]) ∪ •e
//	cut([e])      = (∪ cut([p])) \ consumed([e]) ∪ e•
//
// which follows from cut(C) = produced(C) \ consumed(C) and the fact that
// produced and consumed distribute over configuration union.
func (b *builder) buildCutSets(pe *possibleExtension, e *Event) (cut, consumed *idSet) {
	consumed = newIDSet()
	cut = newIDSet()
	for _, c := range pe.preset {
		p := c.Producer
		cut.orWith(b.cutSets[p.ID])
		consumed.orWith(b.consumedSets[p.ID])
	}
	for _, c := range pe.preset {
		consumed.add(c.ID)
	}
	cut.andNotWith(consumed)
	for _, c := range e.Postset {
		cut.add(c.ID)
	}
	return cut, consumed
}

// instantiate turns a possible extension into an event of the segment:
// consistency checks and event creation, the co-relation update, then the
// final state, the cut-off test and the search for new extensions.
func (b *builder) instantiate(pe *possibleExtension) error {
	e, err := b.newEventFor(pe)
	if err != nil {
		return err
	}
	if err := b.updateCo(pe, e); err != nil {
		return err
	}
	return b.commitState(pe, e)
}

// newEventFor validates the extension against the consistent-state-assignment
// criterion, appends the event and its postset conditions to the segment, and
// leaves the intersection of the preset co-sets in b.common.
func (b *builder) newEventFor(pe *possibleExtension) (*Event, error) {
	label := b.g.Label(pe.transition)
	parentCode := b.parentCodeOf(pe)
	if b.opts.DebugCheck {
		if replay := b.codeOfConfig(pe.parentLocal); !replay.Equal(parentCode) {
			return nil, fmt.Errorf("unfolding: internal error: incremental parent code %s != replay %s at %s",
				parentCode, replay, b.g.TransitionString(pe.transition))
		}
	}
	if !label.IsDummy {
		val := parentCode.Get(label.Signal)
		if label.Dir == stg.Plus && val {
			return nil, &InconsistencyError{
				Transition: b.g.TransitionString(pe.transition),
				Detail:     fmt.Sprintf("signal %q is already 1", b.g.Signal(label.Signal).Name),
			}
		}
		if label.Dir == stg.Minus && !val {
			return nil, &InconsistencyError{
				Transition: b.g.TransitionString(pe.transition),
				Detail:     fmt.Sprintf("signal %q is already 0", b.g.Signal(label.Signal).Name),
			}
		}
	}

	e := &Event{
		ID:         len(b.u.Events),
		Transition: pe.transition,
		Preset:     pe.preset,
		label:      label,
	}
	// The possible extension is instantiated exactly once, so its parent
	// configuration can be adopted as the event's local configuration.
	e.Local = pe.parentLocal
	e.Local.add(e.ID)
	e.Size = pe.size
	code := parentCode
	if !label.IsDummy {
		code.Set(label.Signal, label.Dir == stg.Plus)
	}
	e.Code = code
	b.u.Events = append(b.u.Events, e)
	if !label.IsDummy {
		b.u.bySignal[label.Signal] = append(b.u.bySignal[label.Signal], e)
	}
	for _, c := range pe.preset {
		c.Consumers = append(c.Consumers, e)
	}

	// Create the postset conditions and leave the intersection of the preset
	// co-sets in b.common for updateCo.
	common := &b.common
	common.copyFrom(b.co[pe.preset[0].ID])
	for _, c := range pe.preset[1:] {
		common.andWith(b.co[c.ID])
	}
	for _, p := range b.net.Post(pe.transition) {
		c := b.newCondition(p, e)
		e.Postset = append(e.Postset, c)
	}
	return e, nil
}

// updateCo extends the concurrency relation to the postset of e: co(c) for c
// in e• is the intersection of the co-sets of the preset conditions, plus the
// siblings in e•, so the forward rows are a word-level copy of b.common.  A
// condition of the parent cut that stays concurrent with a same-place postset
// condition would mean the place can hold two tokens at once: the net is not
// safe.
func (b *builder) updateCo(pe *possibleExtension, e *Event) error {
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
	return nil
}

// commitState records the event's final state (cut, marking, cut-off status),
// derived incrementally from the preset producers, and, unless the event is a
// cut-off, searches its postset for new possible extensions.
func (b *builder) commitState(pe *possibleExtension, e *Event) error {
	cutSet, consumedSet := b.buildCutSets(pe, e)
	b.cutSets = append(b.cutSets, cutSet)
	b.consumedSets = append(b.consumedSets, consumedSet)
	cut := make([]*Condition, 0, cutSet.count())
	cutSet.forEach(func(id int) { cut = append(cut, b.u.Conditions[id]) })
	e.Cut = cut
	e.Marking = markingOfCut(cut)
	if b.opts.DebugCheck {
		replay := b.cutOfConfig(e.Local)
		if !SameCut(e.Cut, replay) {
			return fmt.Errorf("unfolding: internal error: incremental cut != replay cut at %s", b.u.EventName(e))
		}
		if replayM := markingOfCut(replay); !replayM.Equal(e.Marking) {
			return fmt.Errorf("unfolding: internal error: incremental marking != replay marking at %s", b.u.EventName(e))
		}
	}

	h := stateHash(e.Marking, e.Code)
	if prior := b.lookupState(h, e.Marking, e.Code); prior != nil {
		e.IsCutoff = true
		e.Correspondent = prior
		return nil // no extensions beyond a cut-off event
	}
	b.putState(h, e)
	for _, c := range e.Postset {
		b.markLive(c)
	}
	for _, c := range e.Postset {
		b.findExtensionsWith(c)
	}
	return nil
}

// findExtensionsWith enumerates all possible extensions whose preset contains
// the (freshly created) condition c.
func (b *builder) findExtensionsWith(c *Condition) {
	for _, t := range b.net.PlacePost(c.Place) {
		// Candidate conditions for every other preset place, restricted to
		// conditions concurrent with c and not produced by cut-off events.
		pre := b.net.Pre(t)
		others := make([]petri.PlaceID, 0, len(pre)-1)
		for _, p := range pre {
			if p != c.Place {
				others = append(others, p)
			}
		}
		if len(others) == 0 {
			b.addPE(t, c, nil)
			continue
		}
		b.chooseCoset(t, c, others, make([]*Condition, 0, len(others)), b.co[c.ID])
	}
}

// searchScratch is the per-recursion-depth scratch of chooseCoset.
type searchScratch struct {
	cand []*idSet // candidate sets, one per recursion depth
	co   []*idSet // accumulated co-sets, one per recursion depth
}

// at returns the candidate and co-accumulator scratch sets for the given
// recursion depth, growing the pools on demand.
func (sc *searchScratch) at(depth int) (cands, coAcc *idSet) {
	for len(sc.cand) <= depth {
		sc.cand = append(sc.cand, newIDSet())
		sc.co = append(sc.co, newIDSet())
	}
	return sc.cand[depth], sc.co[depth]
}

// chooseCoset recursively selects one condition per remaining preset place so
// that the selection plus c is a co-set, then records the possible extension.
// coAcc is the intersection of the co-sets of c and every chosen condition;
// the candidates for the next place are coAcc ∩ placeConds[place], computed a
// word at a time instead of filtering the place's conditions one by one.
func (b *builder) chooseCoset(t petri.TransitionID, c *Condition, remaining []petri.PlaceID, chosen []*Condition, coAcc *idSet) {
	place := remaining[0]
	cands, nextCo := b.search.at(len(chosen))
	cands.intersectInto(coAcc, b.placeConds[place])
	if len(remaining) == 1 {
		cands.forEach(func(id int) {
			b.addPE(t, c, append(chosen, b.u.Conditions[id]))
		})
		return
	}
	cands.forEach(func(id int) {
		nextCo.intersectInto(coAcc, b.co[id])
		b.chooseCoset(t, c, remaining[1:], append(chosen, b.u.Conditions[id]), nextCo)
	})
}

// peHash keys the possible-extension dedup table.
func peHash(t petri.TransitionID, preset []*Condition) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(t)) * prime
	for _, c := range preset {
		h = (h ^ uint64(c.ID)) * prime
	}
	return h
}

// addPE sorts the preset of a freshly discovered co-set by condition ID,
// deduplicates the possible extension and pushes it onto the queue.
func (b *builder) addPE(t petri.TransitionID, c *Condition, chosen []*Condition) {
	preset := make([]*Condition, 0, len(chosen)+1)
	preset = append(preset, c)
	preset = append(preset, chosen...)
	sort.Slice(preset, func(i, j int) bool { return preset[i].ID < preset[j].ID })
	h := peHash(t, preset)
	for _, fp := range b.seenPE[h] {
		if fp.matches(t, preset) {
			return
		}
	}
	ids := make([]int32, len(preset))
	for i, p := range preset {
		ids[i] = int32(p.ID)
	}
	b.seenPE[h] = append(b.seenPE[h], peFingerprint{transition: t, preset: ids})

	parent := newIDSet()
	for _, p := range preset {
		parent.orWith(p.Producer.Local)
	}
	pe := &possibleExtension{
		transition:  t,
		preset:      preset,
		parentLocal: parent,
		size:        parent.count() + 1,
		seq:         b.seq,
	}
	b.seq++
	heap.Push(&b.queue, pe)
}
