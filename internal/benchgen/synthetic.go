package benchgen

import (
	"fmt"
	"math/rand"

	"punt/internal/bitvec"
	"punt/internal/stg"
)

// The synthetic controllers are handshake-component trees in the style of
// syntax-directed asynchronous controllers: a root handshake driven by the
// environment decomposes, through sequencer (SEQ) and paralleliser (PAR)
// nodes, into leaf handshakes, some of which contain extra internal signal
// toggles or an environment-resolved choice.  Every block is a four-phase
// "broad" handshake, which keeps the composed STG consistent, safe,
// semi-modular and free of CSC conflicts while mixing sequencing, wide
// concurrency and input choice — the structure class of the paper's Table 1
// benchmarks, whose originals are not redistributable.

// nodeKind is the type of a plan-tree node.
type nodeKind int

const (
	kindLeaf nodeKind = iota
	kindSeq
	kindPar
	// kindChoice is an environment-resolved free choice between two child
	// blocks: two fresh input selects compete for the token the request
	// provides (RandomSTG only).
	kindChoice
	// kindCSCLeaf is a leaf whose two pads each toggle up and down in
	// sequence, so the states before and between the pad bursts share a
	// binary code while exciting different outputs — a deliberate Complete
	// State Coding conflict (RandomSTG only).
	kindCSCLeaf
)

// planNode is one block of the handshake tree.
type planNode struct {
	kind         nodeKind
	pads         int  // internal toggle signals (leaves only)
	internalPads bool // declare the pads as internal instead of output signals
	children     []*planNode
}

// cost returns the number of signals the node adds beyond its own port.
func (n *planNode) cost() int {
	switch n.kind {
	case kindLeaf:
		return n.pads
	default:
		total := 0
		for _, c := range n.children {
			total += 2 + c.cost()
		}
		return total
	}
}

// buildPlan builds a random plan tree consuming exactly the given signal
// budget (the number of signals beyond the root port).
func buildPlan(budget int, rng *rand.Rand) *planNode {
	if budget <= 3 {
		return &planNode{kind: kindLeaf, pads: budget}
	}
	// An internal node with k children costs 2 per child plus the children's
	// own budgets.  Pick 2 or 3 children when the budget allows.
	k := 2
	if budget >= 10 && rng.Intn(2) == 0 {
		k = 3
	}
	kind := kindSeq
	if rng.Intn(2) == 0 {
		kind = kindPar
	}
	node := &planNode{kind: kind}
	remaining := budget - 2*k
	if remaining < 0 {
		return &planNode{kind: kindLeaf, pads: budget}
	}
	for i := 0; i < k; i++ {
		share := remaining / (k - i)
		if i < k-1 && share > 0 {
			share = rng.Intn(share + 1)
		}
		if i == k-1 {
			share = remaining
		}
		node.children = append(node.children, buildPlan(share, rng))
		remaining -= share
	}
	return node
}

// SyntheticController generates a deterministic pseudo-random handshake-tree
// controller with exactly the requested number of signals (minimum 4).
func SyntheticController(name string, signals int, seed int64) *stg.STG {
	if signals < 4 {
		panic("benchgen: SyntheticController needs at least 4 signals")
	}
	rng := rand.New(rand.NewSource(seed))
	plan := buildPlan(signals-4, rng) // root port (2) + root child port (2)
	b := stg.NewBuilder(name)
	b.Inputs("r").Outputs("a")
	e := &emitter{b: b}
	// The root block has a single child implementing the request.
	childReq, childAck := e.emit(plan, "0")
	// Root protocol: r+ -> child request; child ack -> a+; the environment
	// lowers r after a+, the falling phase mirrors the rising one, and the
	// environment raises r again after a- (the initially marked arc).
	b.Arc("r+", childReq+"+").Arc(childAck+"+", "a+")
	b.Arc("r-", childReq+"-").Arc(childAck+"-", "a-")
	b.Arc("a+", "r-")
	b.Arc("a-", "r+").MarkBetween("a-", "r+")
	g := b.MustBuild()
	g.SetInitialState(bitvec.New(g.NumSignals())) // every signal starts low
	if g.NumSignals() != signals {
		panic(fmt.Sprintf("benchgen: %s generated %d signals, want %d", name, g.NumSignals(), signals))
	}
	return g
}

// emitter walks a plan tree and emits the handshake blocks into the builder.
type emitter struct {
	b *stg.Builder
}

// emit creates the block for the node and returns the names of its request
// and acknowledge signals (the port the parent connects to).
func (e *emitter) emit(n *planNode, path string) (req, ack string) {
	req = "r" + path
	ack = "a" + path
	e.b.Outputs(req, ack)
	switch n.kind {
	case kindLeaf:
		prevRise := req + "+"
		prevFall := req + "-"
		for i := 0; i < n.pads; i++ {
			x := fmt.Sprintf("x%s_%d", path, i)
			if n.internalPads {
				e.b.Internals(x)
			} else {
				e.b.Outputs(x)
			}
			e.b.Arc(prevRise, x+"+")
			e.b.Arc(prevFall, x+"-")
			prevRise, prevFall = x+"+", x+"-"
		}
		e.b.Arc(prevRise, ack+"+")
		e.b.Arc(prevFall, ack+"-")
	case kindCSCLeaf:
		// Both pads toggle fully during the rising phase: the markings before
		// x0+ and before x1+ carry identical codes but excite different
		// outputs, which is exactly a CSC conflict.
		x0 := "x" + path + "_0"
		x1 := "x" + path + "_1"
		if n.internalPads {
			e.b.Internals(x0, x1)
		} else {
			e.b.Outputs(x0, x1)
		}
		e.b.Chain(req+"+", x0+"+", x0+"-", x1+"+", x1+"-", ack+"+")
		e.b.Arc(req+"-", ack+"-")
	case kindChoice:
		// The environment resolves a free choice between the two children:
		// the request arms a choice place, one of two fresh input selects
		// consumes it, and the selected child's acknowledgement reaches the
		// block port through merge places.  The falling phase is steered back
		// into the selected branch by the per-branch memory place.
		pc, pd := "pc"+path, "pd"+path
		up, down := "pu"+path, "pv"+path
		e.b.Place(pc).Place(pd).Place(up).Place(down)
		e.b.PlaceArc(req+"+", pc)
		e.b.PlaceArc(req+"-", pd)
		for i, c := range n.children {
			tag := string(rune('a' + i))
			sel := "s" + path + tag
			q := "q" + path + tag
			e.b.Inputs(sel)
			e.b.Place(q)
			cReq, cAck := e.emit(c, path+tag)
			e.b.PlaceArc(pc, sel+"+")
			e.b.PlaceArc(sel+"+", q)
			e.b.Arc(sel+"+", cReq+"+")
			e.b.PlaceArc(cAck+"+", up)
			e.b.PlaceArc(q, sel+"-")
			e.b.PlaceArc(pd, sel+"-")
			e.b.Arc(sel+"-", cReq+"-")
			e.b.PlaceArc(cAck+"-", down)
		}
		e.b.PlaceArc(up, ack+"+")
		e.b.PlaceArc(down, ack+"-")
	case kindSeq:
		// Broad sequencer: child i+1 starts after child i acknowledges; the
		// falling phase releases the children in the same order.
		prevRise := req + "+"
		prevFall := req + "-"
		for i, c := range n.children {
			cReq, cAck := e.emit(c, fmt.Sprintf("%s%d", path, i))
			e.b.Arc(prevRise, cReq+"+")
			e.b.Arc(prevFall, cReq+"-")
			prevRise = cAck + "+"
			prevFall = cAck + "-"
		}
		e.b.Arc(prevRise, ack+"+")
		e.b.Arc(prevFall, ack+"-")
	case kindPar:
		// Paralleliser: all children proceed concurrently; the acknowledgement
		// joins them.
		for i, c := range n.children {
			cReq, cAck := e.emit(c, fmt.Sprintf("%s%d", path, i))
			e.b.Arc(req+"+", cReq+"+")
			e.b.Arc(cAck+"+", ack+"+")
			e.b.Arc(req+"-", cReq+"-")
			e.b.Arc(cAck+"-", ack+"-")
		}
	}
	return req, ack
}

// ChoiceController generates a controller with an environment-resolved free
// choice at the top: the environment raises one of two mutually exclusive
// requests, each serving its own handshake subtree, and a shared done output
// acknowledges either.  The per-branch budgets control the subtree sizes.
func ChoiceController(name string, branchBudget int, seed int64) *stg.STG {
	rng := rand.New(rand.NewSource(seed))
	b := stg.NewBuilder(name)
	b.Inputs("ra", "rb").Outputs("d")
	b.Place("pc")
	e := &emitter{b: b}
	emitBranch := func(tag, reqIn string, dPlus, dMinus string) {
		plan := buildPlan(branchBudget, rng)
		cReq, cAck := e.emit(plan, tag)
		b.PlaceArc("pc", reqIn+"+")
		b.Arc(reqIn+"+", cReq+"+")
		b.Arc(cAck+"+", dPlus)
		b.Arc(dPlus, reqIn+"-")
		b.Arc(reqIn+"-", cReq+"-")
		b.Arc(cAck+"-", dMinus)
		b.PlaceArc(dMinus, "pc")
	}
	emitBranch("A", "ra", "d+", "d-")
	emitBranch("B", "rb", "d+/2", "d-/2")
	b.Mark("pc")
	g := b.MustBuild()
	g.SetInitialState(bitvec.New(g.NumSignals()))
	return g
}

// BenchmarkEntry names one row of the Table 1 experiment: a benchmark name
// from the paper and the STG standing in for it.
type BenchmarkEntry struct {
	Name    string
	Signals int
	Build   func() *stg.STG
}

// Table1Suite returns the 21 benchmarks of the paper's Table 1.  The original
// circuit descriptions are not redistributable, so each entry is a
// deterministic synthetic controller with the same signal count and a
// comparable structure class.
func Table1Suite() []BenchmarkEntry {
	rows := []struct {
		name    string
		signals int
	}{
		{"imec-master-read.csc", 18},
		{"nowick.asn", 7},
		{"nowick", 6},
		{"par_4.csc", 14},
		{"sis-master-read.csc", 14},
		{"tsbmSIBRK", 25},
		{"pn_stg_example", 6},
		{"forever_ordered", 8},
		{"alloc-outbound", 9},
		{"mp-forward-pkt", 20},
		{"nak-pa", 10},
		{"pe-send-ifc", 17},
		{"ram-read-sbuf", 11},
		{"rcv-setup", 5},
		{"sbuf-ram-write", 12},
		{"sbuf-read-ctl.old", 8},
		{"sbuf-read-ctl", 8},
		{"sbuf-send-ctl", 8},
		{"sbuf-send-pkt2", 9},
		{"sbuf-send-pkt2.yun", 9},
		{"sendr-done", 4},
	}
	var out []BenchmarkEntry
	for i, r := range rows {
		r := r
		seed := int64(1000 + i*37)
		out = append(out, BenchmarkEntry{
			Name:    r.name,
			Signals: r.signals,
			Build:   func() *stg.STG { return SyntheticController(r.name, r.signals, seed) },
		})
	}
	return out
}
