package resolve

import (
	"sort"
	"sync"
	"sync/atomic"

	"punt/internal/petri"
	"punt/internal/stategraph"
	"punt/internal/stg"
)

// candidate is one feasible insertion: the new signal rises in series after
// rise and falls in series after fall.
type candidate struct {
	rise, fall petri.TransitionID
	// separated is the number of conflicting state pairs the induced value
	// assignment distinguishes.
	separated int
	// penalty prefers insertion points on output/internal transitions over
	// dummies and inputs (classic practice: the inserted state signal should
	// follow the circuit's own events where possible).
	penalty int
	// initHigh is the induced initial value of the new signal.
	initHigh bool
}

// colorer computes, for transition pairs over one state graph, the value
// assignment a serially inserted toggle signal would take: rise edges force
// 0→1, fall edges force 1→0, every other edge forces equality.  The
// incidence structures are built once and reused across pairs.
type colorer struct {
	sg           *stategraph.Graph
	edgesByTrans [][]int
	inc          [][]half
	value        []int8
	stack        []int
}

// half is one undirected incidence entry of the equality propagation.
type half struct {
	other int // neighbouring state
	trans petri.TransitionID
}

func newColorer(sg *stategraph.Graph) *colorer {
	m := sg.STG.Net().NumTransitions()
	c := &colorer{
		sg:           sg,
		edgesByTrans: make([][]int, m),
		inc:          make([][]half, len(sg.States)),
		value:        make([]int8, len(sg.States)),
	}
	for e := range sg.Edges {
		t := sg.Edges[e].Transition
		c.edgesByTrans[t] = append(c.edgesByTrans[t], e)
	}
	for _, e := range sg.Edges {
		c.inc[e.From] = append(c.inc[e.From], half{other: e.To, trans: e.Transition})
		c.inc[e.To] = append(c.inc[e.To], half{other: e.From, trans: e.Transition})
	}
	return c
}

// color computes the assignment induced by (rise, fall) into c.value and
// reports whether the constraints are satisfiable.
func (c *colorer) color(rise, fall petri.TransitionID) bool {
	sg := c.sg
	for i := range c.value {
		c.value[i] = -1
	}
	c.stack = c.stack[:0]
	assign := func(s int, v int8) bool {
		if c.value[s] == -1 {
			c.value[s] = v
			c.stack = append(c.stack, s)
			return true
		}
		return c.value[s] == v
	}
	for _, e := range c.edgesByTrans[rise] {
		if !assign(sg.Edges[e].From, 0) || !assign(sg.Edges[e].To, 1) {
			return false
		}
	}
	for _, e := range c.edgesByTrans[fall] {
		if !assign(sg.Edges[e].From, 1) || !assign(sg.Edges[e].To, 0) {
			return false
		}
	}
	for len(c.stack) > 0 {
		s := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		for _, h := range c.inc[s] {
			if h.trans == rise || h.trans == fall {
				continue // toggle edges were anchored above
			}
			if !assign(h.other, c.value[s]) {
				return false
			}
		}
	}
	return true
}

// colorAssignment computes the per-state toggle value induced by the pair
// (rise, fall) on its own — the form the incremental revalidation needs.  The
// returned slice is freshly allocated; ok is false when the pair admits no
// consistent assignment.
func colorAssignment(sg *stategraph.Graph, rise, fall petri.TransitionID) (value []int8, ok bool) {
	c := newColorer(sg)
	if !c.color(rise, fall) {
		return nil, false
	}
	return append([]int8(nil), c.value...), true
}

// findCandidates enumerates every ordered transition pair (rise, fall) whose
// serial insertion admits a consistent value assignment of the new signal
// over the state graph, and ranks the feasible ones: most conflict pairs
// separated first, then lowest insertion-point penalty, then deterministic
// transition order.
//
// workers > 1 shards the enumeration by rise transition across that many
// goroutines, each with its own colorer (the shared scratch is not safe for
// concurrent use).  The result is identical to the sequential scan: per-rise
// candidate lists are produced in the same inner-loop order whichever worker
// claims them, flattened in rise order, and the final ranking sort is a total
// order over unique (rise, fall) pairs — so the parallel path is a pure
// throughput knob.
func findCandidates(sg *stategraph.Graph, conflicts []stategraph.CSCConflict, workers int) []candidate {
	g := sg.STG
	m := g.Net().NumTransitions()

	penalty := func(t petri.TransitionID) int {
		l := g.Label(t)
		switch {
		case l.IsDummy:
			return 1
		case g.Signal(l.Signal).Kind == stg.Input:
			return 2
		default:
			return 0
		}
	}

	// scanRise appends every feasible (rise, *) candidate in fall order.
	scanRise := func(c *colorer, rise petri.TransitionID, out []candidate) []candidate {
		for fall := petri.TransitionID(0); int(fall) < m; fall++ {
			if rise == fall || len(c.edgesByTrans[fall]) == 0 {
				continue
			}
			if !c.color(rise, fall) {
				continue
			}
			sep := 0
			for _, cf := range conflicts {
				if c.value[cf.StateA] != c.value[cf.StateB] {
					sep++
				}
			}
			if sep == 0 {
				continue // the new signal would not distinguish any conflict
			}
			out = append(out, candidate{
				rise:      rise,
				fall:      fall,
				separated: sep,
				penalty:   penalty(rise) + penalty(fall),
				initHigh:  c.value[0] == 1,
			})
		}
		return out
	}

	var out []candidate
	if workers > 1 && m > 1 {
		perRise := make([][]candidate, m)
		var next atomic.Int64
		var wg sync.WaitGroup
		var panicMu sync.Mutex
		var panicked any
		if workers > m {
			workers = m
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A panic on a bare goroutine bypasses every recover up the
				// stack and kills the process: capture the first one and
				// re-raise it on the coordinating goroutine below.
				defer func() {
					if p := recover(); p != nil {
						panicMu.Lock()
						if panicked == nil {
							panicked = p
						}
						panicMu.Unlock()
					}
				}()
				c := newColorer(sg)
				for {
					i := int(next.Add(1)) - 1
					if i >= m {
						return
					}
					rise := petri.TransitionID(i)
					if len(c.edgesByTrans[rise]) == 0 {
						continue // never fires: the new signal would never rise
					}
					perRise[i] = scanRise(c, rise, nil)
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		for _, cands := range perRise {
			out = append(out, cands...)
		}
	} else {
		c := newColorer(sg)
		for rise := petri.TransitionID(0); int(rise) < m; rise++ {
			if len(c.edgesByTrans[rise]) == 0 {
				continue // never fires: the new signal would never rise
			}
			out = scanRise(c, rise, out)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].separated != out[j].separated {
			return out[i].separated > out[j].separated
		}
		if out[i].penalty != out[j].penalty {
			return out[i].penalty < out[j].penalty
		}
		if out[i].rise != out[j].rise {
			return out[i].rise < out[j].rise
		}
		return out[i].fall < out[j].fall
	})
	return out
}
