package unfolding

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/stg"
)

// goldenSpecs is the segment-identity corpus: the full Table 1 suite plus
// pipeline-class, counterflow, synthetic and choice specs whose co-relation
// is wide.
func goldenSpecs() map[string]*stg.STG {
	specs := map[string]*stg.STG{
		"pipeline-12":  benchgen.MullerPipelineWithSignals(12),
		"pipeline-22":  benchgen.MullerPipelineWithSignals(22),
		"counterflow":  benchgen.CounterflowPipeline(),
		"synthetic-24": benchgen.SyntheticController("synthetic-24", 24, 7),
		"choice-16":    benchgen.ChoiceController("choice-16", 16, 11),
	}
	for _, e := range benchgen.Table1Suite() {
		specs["table1-"+e.Name] = e.Build()
	}
	return specs
}

// segmentDumpGolden holds the SHA-256 of Dump() for every goldenSpecs entry.
// A change to the builder that alters event order, cut-offs, codes or
// presets shows up here before it reaches covers or equations.
var segmentDumpGolden = map[string]string{
	"choice-16":                   "830866c09b8f15795497c72da314b3d1f50561b13a984a7072513359464dc51c",
	"counterflow":                 "a629ba0aa426b8bb94f842760d523b06f44ff398f880dd79d6ef63c481651c21",
	"pipeline-12":                 "ae6f3609221550bc738eefdba8aa731088e85fcb842523213f5fa0e3b610d07b",
	"pipeline-22":                 "f398939641e48d4845aa46f6a99bad80ce496200995e51034dc19e3098f9fe98",
	"synthetic-24":                "f20345c231b6d18926143b78b6abd2fdaeea08734e4625d4e6e319c5d5281280",
	"table1-alloc-outbound":       "5946bedf40fae3d8e56fffceb5899609c0fe2ce0ba501c3af235fc19c1a9f5f0",
	"table1-forever_ordered":      "f2ff5eaef5597e69e80d201e284b53d09dca7b1a78f2419e4a4c1dac9f425f2f",
	"table1-imec-master-read.csc": "9ca8e2009f3901602b83872dd3dce0c23f2a88e97b77d8738d6d1d795772950b",
	"table1-mp-forward-pkt":       "c027a91d5422eae64b63886f717f239835c49a523d4e8af5c05fbf0c47fc2c7c",
	"table1-nak-pa":               "4c5e592aff99da2797da04c20277f7848bf1b5edb01522df794b18ca019d6c98",
	"table1-nowick":               "94a53e44e76cb536730f9cca367321a02b4abbfcb93be78918cb7c3b76e61bac",
	"table1-nowick.asn":           "c67f9ad3dde37157b2639da3f1929f86c4a772d208bd225fe50a499e4d44c06d",
	"table1-par_4.csc":            "efb78cbf3703a7bff6c42891da17fc2955615dbb35d6e08d95aca10935a52e19",
	"table1-pe-send-ifc":          "a586fd446eca34ef9c4e055215a29a3e1ac0e44a191a7cb6d7a8f4a4ac89a077",
	"table1-pn_stg_example":       "ed25e7f467fc92f81c10cb3a09bfb1e33faba08d09e0be32a45ee8470f66a03b",
	"table1-ram-read-sbuf":        "430add4eea5253a984ce720633b3d356bd639ce0ba995eb0108a78a2ad9ecc43",
	"table1-rcv-setup":            "ec1248f69c923fed929cb110167532efacaef8305723e146ab64ae93c914f2df",
	"table1-sbuf-ram-write":       "81a9f9765127a85cbbdaaab924a03d790badb904628d6449e2ae80001f246606",
	"table1-sbuf-read-ctl":        "7fdd2a786ffed7a6fd11dccc2a0c56c5a8434fc5e42fee4b716cf30e31ed6772",
	"table1-sbuf-read-ctl.old":    "6ef0995e0bd8eed73746df2bc7795aac9a285ee0767479f420efcb5a7d1e8f51",
	"table1-sbuf-send-ctl":        "004f80297947fe223ddc48dd696337649bb18a4814eff2a983b0a52a4b008388",
	"table1-sbuf-send-pkt2":       "fdcf85edb287ef6cdad09af1a61f1544435d6d753e800d7973ea84b5411b4f84",
	"table1-sbuf-send-pkt2.yun":   "e271da88f6ada0e8c1a63a9034b9443423b9690cb16b776d48263756f48e8bb4",
	"table1-sendr-done":           "9f2d3248e6fd7a69095f01c16daeb13b2f320aaf044a5f9b1a101d455bcd3f41",
	"table1-sis-master-read.csc":  "b762ef7e19994c575c2383853790e304339121022bc304c9accaaef449e6331d",
	"table1-tsbmSIBRK":            "bd75eab0256565f850ee443421ee23ea5236b65331ed2e52e7bc9477be5036db",
}

// TestSegmentDumpGolden pins the segment byte for byte.
func TestSegmentDumpGolden(t *testing.T) {
	specs := goldenSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u, err := Build(context.Background(), specs[name], Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(u.Dump()))
		if got, want := hex.EncodeToString(sum[:]), segmentDumpGolden[name]; got != want {
			t.Errorf("%s: Dump hash %s, want %s", name, got, want)
		}
	}
	if len(segmentDumpGolden) != len(specs) {
		t.Errorf("golden table has %d entries, corpus has %d", len(segmentDumpGolden), len(specs))
	}
}

// TestProgressMonotonic checks that Progress is called during a build and
// that the event counts it reports never decrease.
func TestProgressMonotonic(t *testing.T) {
	g := benchgen.MullerPipelineWithSignals(22)
	var counts []int
	_, err := Build(context.Background(), g, Options{
		Progress: func(events int) { counts = append(counts, events) },
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(counts) == 0 {
		t.Fatal("Progress was never called")
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("Progress counts not monotonic: %d after %d", counts[i], counts[i-1])
		}
	}
}
