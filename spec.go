package punt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"punt/internal/stg"
	"punt/internal/unfolding"
)

// Spec is a parsed and validated Signal Transition Graph specification, the
// input of every synthesis and analysis entry point of the package.
//
// A Spec is immutable after loading.  When the source carried no
// .initial_state directive, loading reads the initial binary state off the
// specification's unfolding segment (one segment build, linear in the segment
// rather than in the state graph), so the same Spec value may be synthesised
// concurrently — Batch relies on this.  The segment is not kept: synthesis of
// such a Spec builds it again.
type Spec struct {
	g *stg.STG

	hashOnce sync.Once
	hash     string
}

// wrapSpec finalises a freshly built STG into a public Spec.  An STG without
// an initial binary state gets the one its segment implies now, so that later
// synthesis runs never mutate the STG; a segment that cannot be built fails
// the load with the Diagnostic synthesis would report (not safe,
// inconsistent, limit or canceled).
func wrapSpec(ctx context.Context, g *stg.STG) (*Spec, error) {
	if err := unfolding.DeriveInitialState(ctx, g); err != nil {
		return nil, diagnose("load", g.Name(), err)
	}
	return &Spec{g: g}, nil
}

// LoadContext reads a specification in the astg ".g" interchange format from
// r under ctx: a spec without the .initial_state directive builds its
// unfolding segment while loading, and cancelling ctx aborts that build with
// a KindCanceled Diagnostic.  Load, LoadFile and Parse are LoadContext with
// context.Background().
func LoadContext(ctx context.Context, r io.Reader) (*Spec, error) {
	return load(ctx, r, "")
}

// load parses r and finalises the STG; a non-empty path names the source in
// parse errors.
func load(ctx context.Context, r io.Reader, path string) (*Spec, error) {
	g, err := stg.Parse(r)
	if err != nil {
		if path != "" {
			err = fmt.Errorf("%s: %w", path, err)
		}
		return nil, &Diagnostic{Op: "parse", Spec: path, Kind: KindParse, Err: err}
	}
	return wrapSpec(ctx, g)
}

// Load reads a specification in the astg ".g" interchange format (the format
// of SIS and Petrify) from r.
func Load(r io.Reader) (*Spec, error) {
	//puntlint:ignore ctxdiscipline Load is the context-free loader; context-aware callers use LoadContext
	return LoadContext(context.Background(), r)
}

// LoadFile reads a ".g" specification from a file; the path "-" reads
// standard input.
func LoadFile(path string) (*Spec, error) {
	return LoadFileFrom(path, os.Stdin)
}

// LoadFileFrom is LoadFile with an explicit stdin: the path "-" reads from
// the given reader instead of os.Stdin.  It is the loader the cmd/ binaries
// share, so their "-" handling stays testable in process.
func LoadFileFrom(path string, stdin io.Reader) (*Spec, error) {
	if path == "-" {
		return Load(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, &Diagnostic{Op: "parse", Spec: path, Kind: KindParse, Err: err}
	}
	defer f.Close()
	//puntlint:ignore ctxdiscipline LoadFileFrom is the context-free loader; context-aware callers use LoadContext
	return load(context.Background(), f, path)
}

// Parse reads a ".g" specification from a string.
func Parse(text string) (*Spec, error) {
	//puntlint:ignore ctxdiscipline Parse is the context-free loader; context-aware callers use LoadContext
	return LoadContext(context.Background(), strings.NewReader(text))
}

// Name returns the specification's model name.
func (s *Spec) Name() string { return s.g.Name() }

// Hash returns the content hash of the specification: the SHA-256 of its
// canonical ".g" rendering (Text), computed once and memoized.  Two Specs
// with equal hashes describe the same finalised STG, whichever way they were
// loaded — the content-addressed result cache keys on it.
func (s *Spec) Hash() string {
	s.hashOnce.Do(func() {
		sum := sha256.Sum256([]byte(stg.Format(s.g)))
		s.hash = hex.EncodeToString(sum[:])
	})
	return s.hash
}

// NumSignals returns the number of declared signals.
func (s *Spec) NumSignals() int { return s.g.NumSignals() }

// SignalNames returns the names of all signals in declaration order.
func (s *Spec) SignalNames() []string { return s.g.SignalNames() }

// Describe renders a human-readable summary of the specification (signals,
// net size, structural class).
func (s *Spec) Describe() string { return stg.Describe(s.g) }

// Text renders the specification back into the ".g" interchange format.
func (s *Spec) Text() string { return stg.Format(s.g) }

// IsMarkedGraph reports whether the underlying net is a marked graph (every
// place has exactly one producer and one consumer).
func (s *Spec) IsMarkedGraph() bool { return s.g.Net().IsMarkedGraph() }

// IsFreeChoice reports whether the underlying net is free-choice.
func (s *Spec) IsFreeChoice() bool { return s.g.Net().IsFreeChoice() }
