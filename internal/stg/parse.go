package stg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"
	"strings"
	"unicode"

	"punt/internal/bitvec"
	"punt/internal/petri"
)

// Parse reads an STG in the astg ".g" text format (the interchange format of
// SIS, Petrify and related tools).  Supported sections:
//
//	.model / .name <name>
//	.inputs  <signals...>
//	.outputs <signals...>
//	.internal <signals...>
//	.dummy   <names...>
//	.graph                     arcs "src dst1 dst2 ..." where each node is a
//	                           signal edge ("a+", "b-/2"), a dummy name or an
//	                           explicit place name
//	.marking { p1 <a+,b-> ... }
//	.initial_state <bits>      non-standard extension giving the initial code
//	                           over the declared signal order
//	.end
//
// If no .initial_state directive is present the initial binary state is left
// unset; unfolding.Build reads it off the STG's segment (and
// unfolding.DeriveInitialState sets it without keeping the segment).
//
// Lines may be up to maxLineBytes long.  The line buffer starts small and
// grows only for long lines, so parsing costs memory in proportion to the
// input rather than to the cap.
func Parse(r io.Reader) (*STG, error) {
	p := &parser{g: New("stg")}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, initialLineBytes), maxLineBytes)
	lineNo := 0
	// The graph lines, each ended by a newline, are processed after all
	// declarations.
	var graph strings.Builder
	var markingLine string
	inGraph := false
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if i := bytes.IndexByte(raw, '#'); i >= 0 {
			raw = bytes.TrimSpace(raw[:i])
		}
		if len(raw) == 0 {
			continue
		}
		if raw[0] != '.' {
			if !inGraph {
				return nil, fmt.Errorf("stg: line %d: unexpected line %q outside .graph", lineNo, raw)
			}
			graph.Write(raw)
			graph.WriteByte('\n')
			continue
		}
		line := string(raw)
		switch {
		case strings.HasPrefix(line, ".model") || strings.HasPrefix(line, ".name"):
			fields := strings.Fields(line)
			if len(fields) > 1 {
				p.g.SetName(fields[1])
			}
			inGraph = false
		case strings.HasPrefix(line, ".inputs"):
			p.declare(line, Input)
			inGraph = false
		case strings.HasPrefix(line, ".outputs"):
			p.declare(line, Output)
			inGraph = false
		case strings.HasPrefix(line, ".internal"):
			p.declare(line, Internal)
			inGraph = false
		case strings.HasPrefix(line, ".dummy"):
			p.declare(line, Dummy)
			inGraph = false
		case strings.HasPrefix(line, ".graph"):
			inGraph = true
		case strings.HasPrefix(line, ".marking"):
			markingLine = line
			inGraph = false
		case strings.HasPrefix(line, ".initial_state"):
			fields := strings.Fields(line)
			if len(fields) > 1 {
				p.initialState = fields[1]
			}
			inGraph = false
		case strings.HasPrefix(line, ".capacity"):
			// Capacities beyond 1 are not supported; ignore the directive.
			inGraph = false
		case strings.HasPrefix(line, ".end"):
			inGraph = false
		default:
			return nil, fmt.Errorf("stg: line %d: unsupported directive %q", lineNo, strings.Fields(line)[0])
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped while reading the line after the last one
		// it returned.
		return nil, fmt.Errorf("stg: line %d: %w", lineNo+1, err)
	}
	return p.finish(graph.String(), markingLine)
}

// The parser's line buffer starts at initialLineBytes and may grow to
// maxLineBytes, the longest line Parse accepts.
const (
	initialLineBytes = 4 << 10
	maxLineBytes     = 1 << 20
)

// DeclaresInitialState reports whether text carries an .initial_state
// directive with a value, by the line rule Parse applies.  When it does and
// text parses, the STG's initial state is set, so loading it builds no
// unfolding segment.  The scan allocates nothing.
func DeclaresInitialState(text string) bool {
	for line := range strings.Lines(text) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, ".initial_state") {
			continue
		}
		fields := 0
		for range strings.FieldsSeq(line) {
			fields++
		}
		if fields > 1 {
			return true
		}
	}
	return false
}

// ParseFile reads an STG from a .g file on disk.
func ParseFile(path string) (*STG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// ParseString reads an STG from a .g format string.
func ParseString(text string) (*STG, error) {
	return Parse(strings.NewReader(text))
}

type parser struct {
	dummies      map[string]bool // declared dummy names
	initialState string

	g      *STG
	trans  map[string]petri.TransitionID
	places map[string]petri.PlaceID
}

// declare adds the names a declaration line lists (after its directive) as
// signals of the given kind, or as dummy names.  A name declared before keeps
// its first kind.
func (p *parser) declare(line string, kind SignalKind) {
	if kind != Dummy {
		// Room for the line's names; the directive is the first field.
		n := -1
		for range strings.FieldsSeq(line) {
			n++
		}
		p.g.signals = slices.Grow(p.g.signals, n)
	}
	first := true
	for n := range strings.FieldsSeq(line) {
		if first {
			first = false
			continue
		}
		if _, dup := p.g.byName[n]; dup || p.dummies[n] {
			continue
		}
		if kind != Dummy {
			p.g.AddSignal(n, kind)
			continue
		}
		if p.dummies == nil {
			p.dummies = map[string]bool{}
		}
		p.dummies[n] = true
	}
}

// node resolves a .graph identifier to either a transition or an explicit
// place, creating it on first reference.
func (p *parser) node(ref string) (isPlace bool, t petri.TransitionID, pl petri.PlaceID, err error) {
	if t, ok := p.trans[ref]; ok {
		return false, t, 0, nil
	}
	if pl, ok := p.places[ref]; ok {
		return true, 0, pl, nil
	}
	if pl, ok := p.g.net.PlaceByName(ref); ok {
		return true, 0, pl, nil
	}
	if sig, dir, _, ok := ParseEdge(ref); ok {
		if idx, declared := p.g.SignalIndex(sig); declared {
			id := p.g.AddTransition(idx, dir)
			p.trans[ref] = id
			return false, id, 0, nil
		}
	}
	if p.dummies[ref] {
		id := p.g.AddDummyTransition(ref)
		p.trans[ref] = id
		return false, id, 0, nil
	}
	// Anything else is an explicit place.
	id := p.g.AddPlace(ref)
	p.places[ref] = id
	return true, 0, id, nil
}

// splitGraphLine splits a trimmed .graph line into its first node and the
// rest, whose fields are the arc targets.
func splitGraphLine(line string) (head, rest string, err error) {
	i := strings.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return "", "", fmt.Errorf("stg: malformed graph line %q", line)
	}
	return line[:i], line[i:], nil
}

// graphLines iterates over the newline-terminated lines of graph.
func graphLines(graph string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for line := range strings.Lines(graph) {
			if !yield(line[:len(line)-1]) {
				return
			}
		}
	}
}

func (p *parser) finish(graph, markingLine string) (*STG, error) {
	// Size the net before building it: every transition heads a line (its
	// postset is not empty), and every implicit place is an arc.
	lines, arcs := strings.Count(graph, "\n"), 0
	for line := range graphLines(graph) {
		_, rest, err := splitGraphLine(line)
		if err != nil {
			return nil, err
		}
		for range strings.FieldsSeq(rest) {
			arcs++
		}
	}
	p.g.net.Grow(arcs, lines)
	p.g.labels = slices.Grow(p.g.labels, lines)
	p.trans = make(map[string]petri.TransitionID, lines)
	p.places = map[string]petri.PlaceID{}
	// First pass: create the node at the head of every line, in line order,
	// so that node identifiers (and the instance numbering of repeated signal
	// edges) follow the order of appearance rather than the order of first
	// reference.  WriteG emits one line per transition in identifier order,
	// so this is also what makes write/parse round trips stable.
	for line := range graphLines(graph) {
		head, _, _ := splitGraphLine(line)
		if _, _, _, err := p.node(head); err != nil {
			return nil, err
		}
	}
	// Second pass: the arcs, in line order.
	for line := range graphLines(graph) {
		src, rest, _ := splitGraphLine(line)
		srcIsPlace, srcT, srcP, err := p.node(src)
		if err != nil {
			return nil, err
		}
		for dst := range strings.FieldsSeq(rest) {
			dstIsPlace, dstT, dstP, err := p.node(dst)
			if err != nil {
				return nil, err
			}
			switch {
			case srcIsPlace && dstIsPlace:
				return nil, fmt.Errorf("stg: arc between two places %q -> %q", src, dst)
			case srcIsPlace:
				p.g.AddArcPT(srcP, dstT)
			case dstIsPlace:
				p.g.AddArcTP(srcT, dstP)
			default:
				// transition -> transition through an implicit place, which
				// .marking names "<src,dst>".  The net finds the place under
				// its own name, so only another spelling needs an entry.
				pl := p.g.AddArcTT(srcT, dstT)
				if p.g.net.PlaceName(pl) != "<"+src+","+dst+">" {
					p.places["<"+src+","+dst+">"] = pl
				}
			}
		}
	}
	if markingLine != "" {
		if err := p.parseMarking(markingLine); err != nil {
			return nil, err
		}
	}
	if p.initialState != "" {
		v, err := bitvec.FromString(p.initialState)
		if err != nil {
			return nil, fmt.Errorf("stg: bad .initial_state: %w", err)
		}
		if v.Len() != p.g.NumSignals() {
			return nil, fmt.Errorf("stg: .initial_state has %d bits for %d signals", v.Len(), p.g.NumSignals())
		}
		p.g.SetInitialState(v)
	}
	if err := p.g.Validate(); err != nil {
		return nil, err
	}
	return p.g, nil
}

func (p *parser) parseMarking(line string) error {
	open := strings.IndexByte(line, '{')
	closeIdx := strings.LastIndexByte(line, '}')
	if open < 0 || closeIdx < open {
		return fmt.Errorf("stg: malformed .marking line %q", line)
	}
	body := line[open+1 : closeIdx]
	// Tokens are either bare place names or implicit places "<a+,b->",
	// which may contain blanks, possibly with a token count suffix "=2"
	// which we reject (safe nets only).  A blank outside <...> ends a token.
	marked := make([]bool, p.g.net.NumPlaces())
	depth, start := 0, -1
	for i := 0; i <= len(body); i++ {
		sep := i == len(body)
		if !sep {
			switch body[i] {
			case '<':
				depth++
			case '>':
				depth--
			case ' ', '\t':
				sep = depth <= 0
			}
		}
		switch {
		case !sep && start < 0:
			start = i
		case sep && start >= 0:
			if err := p.markToken(body[start:i], marked); err != nil {
				return err
			}
			start = -1
		}
	}
	return nil
}

// markToken puts the initial token on the place a .marking entry names;
// marked[pl] records the places marked so far.
func (p *parser) markToken(tok string, marked []bool) error {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return nil
	}
	if strings.Contains(tok, "=") {
		return fmt.Errorf("stg: weighted marking %q not supported (safe nets only)", tok)
	}
	name := strings.ReplaceAll(tok, " ", "")
	pl, ok := p.places[name]
	if !ok {
		// Also try with the raw token (explicit place with unusual name).
		pl, ok = p.g.Net().PlaceByName(name)
	}
	if !ok {
		return fmt.Errorf("stg: .marking refers to unknown place %q", tok)
	}
	if marked[pl] {
		return fmt.Errorf("stg: place %q listed twice in .marking (safe nets only)", name)
	}
	marked[pl] = true
	p.g.MarkInitially(pl)
	return nil
}
