package punt

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"punt/gates"
	"punt/internal/stg"
)

// The exported JSON round-trip of Result, Stats and Diagnostic.  One
// serializer covers both transports: the puntd HTTP API sends these bytes on
// the wire and the persistent result store writes the very same bytes to
// disk, so a warm entry can be served to a remote client without ever being
// re-encoded.  The format is versioned (ResultFormatVersion) and strictly
// validated on decode — a truncated or tampered document fails DecodeResult
// instead of producing a half-usable Result.

// ResultFormatVersion is the serialization format written by EncodeResult
// and accepted by DecodeResult.  It changes only when the wire shape changes
// incompatibly; readers reject documents from other versions, which the
// cache layers then treat as misses (an old store is re-warmed, never
// misread).
const ResultFormatVersion = 1

// resultWire is the serialized shape of a Result.  The specification
// travels as its canonical ".g" text plus its content hash: the decoder
// re-parses the text and verifies the hash, so a Result read back from disk
// is exactly as trustworthy as one synthesized in-process.
type resultWire struct {
	Format      int             `json:"format"`
	Spec        string          `json:"spec"`
	SpecHash    string          `json:"spec_hash"`
	Impl        json.RawMessage `json:"impl"`
	Stats       Stats           `json:"stats"`
	Resolution  *Diagnostic     `json:"resolution,omitempty"`
	Degradation *Diagnostic     `json:"degradation,omitempty"`
}

// MarshalJSON renders the result in the versioned wire format shared by the
// HTTP API and the on-disk result store.
func (r *Result) MarshalJSON() ([]byte, error) {
	if r.Spec == nil || r.Impl == nil {
		return nil, fmt.Errorf("%w: cannot marshal an incomplete Result", ErrFormat)
	}
	impl, err := json.Marshal(r.Impl)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resultWire{
		Format:      ResultFormatVersion,
		Spec:        r.Spec.Text(),
		SpecHash:    r.Spec.Hash(),
		Impl:        impl,
		Stats:       r.Stats,
		Resolution:  r.Resolution,
		Degradation: r.Degradation,
	})
}

// UnmarshalJSON parses and validates the wire format: the format version
// must match, the embedded specification must re-parse to the recorded
// content hash, and the implementation must pass its structural integrity
// checks.  Any violation fails the decode — the cache layers turn that into
// a miss.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Format != ResultFormatVersion {
		return fmt.Errorf("%w: result format %d, this reader speaks %d", ErrFormat, w.Format, ResultFormatVersion)
	}
	// EncodeResult always writes the initial state.  A document without it
	// is rejected rather than loaded, because loading would build the
	// specification's unfolding segment: decoding does no engine work.
	if !stg.DeclaresInitialState(w.Spec) {
		return fmt.Errorf("%w: result specification carries no .initial_state", ErrFormat)
	}
	spec, err := Parse(w.Spec)
	if err != nil {
		return fmt.Errorf("punt: result carries an unparseable specification: %w", err)
	}
	if w.SpecHash != "" && spec.Hash() != w.SpecHash {
		return fmt.Errorf("%w: result specification hash mismatch (recorded %.12s…, got %.12s…)",
			ErrFormat, w.SpecHash, spec.Hash())
	}
	if len(w.Impl) == 0 {
		return fmt.Errorf("%w: result carries no implementation", ErrFormat)
	}
	impl := new(gates.Implementation)
	if err := json.Unmarshal(w.Impl, impl); err != nil {
		return err
	}
	if err := impl.Validate(); err != nil {
		return fmt.Errorf("punt: result implementation fails validation: %w", err)
	}
	r.Spec = spec
	r.Impl = impl
	r.Stats = w.Stats
	r.Resolution = w.Resolution
	r.Degradation = w.Degradation
	return nil
}

// EncodeResult serializes a result into the shared wire/disk format.
func EncodeResult(res *Result) ([]byte, error) {
	return json.Marshal(res)
}

// DecodeResult parses and validates a document written by EncodeResult.
// Every rejection matches ErrFormat; one whose embedded specification fails
// to load also carries that load's Diagnostic.
func DecodeResult(data []byte) (*Result, error) {
	res := new(Result)
	if err := json.Unmarshal(data, res); err != nil {
		if !errors.Is(err, ErrFormat) {
			err = fmt.Errorf("%w: %w", ErrFormat, err)
		}
		return nil, err
	}
	return res, nil
}

// contenderWire is the serialized shape of a portfolio Contender; the error
// travels as its rendered message.
type contenderWire struct {
	Engine  string        `json:"engine"`
	Winner  bool          `json:"winner,omitempty"`
	Started bool          `json:"started,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// MarshalJSON renders the contender outcome.
func (c Contender) MarshalJSON() ([]byte, error) {
	w := contenderWire{Engine: c.Engine, Winner: c.Winner, Started: c.Started, Elapsed: c.Elapsed}
	if c.Err != nil {
		w.Error = c.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses a contender outcome; a recorded error message comes
// back as an opaque error value.
func (c *Contender) UnmarshalJSON(data []byte) error {
	var w contenderWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*c = Contender{Engine: w.Engine, Winner: w.Winner, Started: w.Started, Elapsed: w.Elapsed}
	if w.Error != "" {
		c.Err = errors.New(w.Error)
	}
	return nil
}

// diagnosticWire is the serialized shape of a Diagnostic.  Kind travels as
// the numeric classifier (the value errors.Is matching is defined over) plus
// its rendered name for human readers; the underlying engine error travels
// as its message.
type diagnosticWire struct {
	Op       string    `json:"op,omitempty"`
	Spec     string    `json:"spec,omitempty"`
	Kind     DiagKind  `json:"kind"`
	KindName string    `json:"kind_name,omitempty"`
	Signal   string    `json:"signal,omitempty"`
	Place    string    `json:"place,omitempty"`
	Trace    []string  `json:"trace,omitempty"`
	Attempts []Attempt `json:"attempts,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// MarshalJSON renders the diagnostic with its structure intact — Kind,
// Signal, Place, Trace and the attempt ladder all survive the wire, so a
// remote client can branch on them exactly like a local caller.
func (d *Diagnostic) MarshalJSON() ([]byte, error) {
	w := diagnosticWire{
		Op:       d.Op,
		Spec:     d.Spec,
		Kind:     d.Kind,
		KindName: d.Kind.String(),
		Signal:   d.Signal,
		Place:    d.Place,
		Trace:    d.Trace,
		Attempts: d.Attempts,
	}
	if d.Err != nil {
		w.Error = d.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses a diagnostic.  The recorded engine error comes back
// as an opaque error value; errors.Is against the unified sentinels (ErrCSC,
// ErrLimit, ErrBudget, ErrVerification) still works, because Diagnostic.Is
// matches on Kind.
func (d *Diagnostic) UnmarshalJSON(data []byte) error {
	var w diagnosticWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = Diagnostic{
		Op:       w.Op,
		Spec:     w.Spec,
		Kind:     w.Kind,
		Signal:   w.Signal,
		Place:    w.Place,
		Trace:    w.Trace,
		Attempts: w.Attempts,
	}
	if w.Error != "" {
		d.Err = errors.New(w.Error)
	}
	return nil
}
