package punt_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"punt"
)

// FuzzDecodeResult feeds mutated result documents to DecodeResult, the
// decoder of the disk tier and of daemon replies.  It must never panic, and
// every document it rejects is ErrFormat (a rejected embedded specification
// also carries its Diagnostic).  Run with:
//
//	go test -run=NONE -fuzz=FuzzDecodeResult -fuzztime=30s .
func FuzzDecodeResult(f *testing.F) {
	res, err := punt.New().Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		f.Fatal(err)
	}
	doc, err := punt.EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	stripped := bytes.Replace(doc, []byte(`.initial_state 000\n`), nil, 1)
	if bytes.Equal(stripped, doc) {
		f.Fatal("the seed document carries no .initial_state line to strip")
	}
	f.Add(stripped)
	f.Add(doc[:len(doc)/2])
	f.Add([]byte(`{"format":1,"spec":".model m\n.outputs a\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.end\n","impl":{}}`))
	f.Add([]byte(`{"format":99}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		got, err := punt.DecodeResult(data)
		if err != nil {
			if !errors.Is(err, punt.ErrFormat) {
				t.Fatalf("rejection is not ErrFormat: %v", err)
			}
			return
		}
		if got.Spec == nil || got.Impl == nil {
			t.Fatalf("accepted document without a spec or an implementation")
		}
	})
}
