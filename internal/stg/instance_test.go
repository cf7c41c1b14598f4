package stg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/petri"
	"punt/internal/stg"
)

// labelCorpus holds every spec the repository ships or generates: Table 1,
// the .g files under testdata, the Figure 6 pipelines with counterflow, and
// twenty RandomSTG controllers.
func labelCorpus(t *testing.T) map[string]*stg.STG {
	specs := map[string]*stg.STG{"counterflow": benchgen.CounterflowPipeline()}
	for _, e := range benchgen.Table1Suite() {
		specs["table1-"+e.Name] = e.Build()
	}
	files, err := filepath.Glob("../../testdata/*.g")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseString(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		specs["testdata-"+filepath.Base(f)] = g
	}
	for _, n := range []int{5, 8, 12, 17, 22, 27, 32, 34, 42, 50} {
		specs[fmt.Sprintf("pipeline-%d", n)] = benchgen.MullerPipelineWithSignals(n)
	}
	for seed := int64(0); seed < 20; seed++ {
		specs[fmt.Sprintf("random-%d", seed)] = benchgen.RandomSTG(seed, 4+int(seed%14))
	}
	return specs
}

// textGolden holds the SHA-256 of the .g text of every labelCorpus spec, as
// written when AddTransition numbered an instance by scanning all labels.
var textGolden = map[string]string{
	"counterflow":                 "1af34f5e11e4b795890db0bb21a954357959f4beb78c98b237a59410016c1c19",
	"pipeline-12":                 "a5761975fc13d907b7583ec6c724976e8ebb840b4fb9aecf8f374cd6b4cff99e",
	"pipeline-17":                 "62c27a72bd2dff59342ed5585ea6f216b231e7bafa8d1d4db5117343395ed514",
	"pipeline-22":                 "4972ed5bb33f1a93fcd279c3b67ad0a5ef074bba79edb4bc75375b95010a64fb",
	"pipeline-27":                 "73f16c4e8259a59a0655e6059fb41dff2107d9467f242fa469c0c0bd52cd8bea",
	"pipeline-32":                 "583a140871eb4f45b231e7694b83cc768b35eab9f70fe0585dfe6d9196327d98",
	"pipeline-34":                 "dd59f31a8d847bafd5cae571af38fa2f3c9910ede195f238260038704e712c80",
	"pipeline-42":                 "49e0c00dfd2cc05fc9dec170caa326ed436d68074b2d0901ab8ebe667d80bfb0",
	"pipeline-5":                  "ab8173a4c3d8f5ae11c8a03089a1e5574eca1ae943b2fa6365fb8220e0f1c591",
	"pipeline-50":                 "592267b0432a4c1f3de8d1a5ea30ff5c94952bea990acacb9d2585b238f26bfc",
	"pipeline-8":                  "c6f240ba04e65408e700fa747bcca42a5b4e3c6cf6cee69e77338988703be172",
	"random-0":                    "2cfc3bcb13adf969794b6360f016988a9bc422894ef9b284f91da32a036c3d32",
	"random-1":                    "838922a526db9f72af4bb41e4a9175a118ddc646cf9de0f5b9768e31a075a69b",
	"random-10":                   "bb2f41382aa5ba69a3a5f7ca05390e4f1487688a46bdfe82aa3237cb335b2271",
	"random-11":                   "a60a24fb9aeb85d104072ffde8d56b4b2471fdb4103c43838f7bc07350621e29",
	"random-12":                   "bcb3f429cfd7ab2c0f7d93cdee180115093f7dffc6de68222c7c8809e55ee977",
	"random-13":                   "335461966d52710c51cbe25d80802d510ec5fb8dd73f229d2a4ab0577cfa1ab6",
	"random-14":                   "b37ef3c4f0b931a8b23d5a31ad775ef8a6f54fc99da9257d1b2ca713081aae92",
	"random-15":                   "495654ed5017834e0dc84d476c333331b48afc2d6c6df1b892a9efe9911b8706",
	"random-16":                   "a822948902d6d4d8206a6eb03dd088f21659d53ae2ee072f0696e221954ae594",
	"random-17":                   "d94d908637ba9e7ad20be2e447cdb7baa6e44bfe67981909ace59ce7f571ad5d",
	"random-18":                   "cbf227bbff4b103c8c1c7e5968082d8b9ab2b15a0ec2fc05cc38094df88fe22d",
	"random-19":                   "f80009d248eb992e90a5bc2f218cd074c95feddae7e01f6dd2a7b1d75252ceec",
	"random-2":                    "6c5a5dd4bf32281431150c71116533b6ac124f2f2f4af9ad0d170b19c1992000",
	"random-3":                    "3ddba9112e490af9476b93bfb5348d23b968c6a446bce173290feb602a468ed5",
	"random-4":                    "618d4b32ecd35eec96b1dba9e6ae37e3bc553f93d313bfd05a0e52317c9d4bc9",
	"random-5":                    "312b0d70d8cda660cf91f69c248f6c9e985b65c57f33560caae4af141540712a",
	"random-6":                    "e3f425f913180486f3a00539c3712067888547b2d5c6f3d22ddb7872f8787775",
	"random-7":                    "10fa9f46bc14f005e7dd0aa88fe4307751714e8b0c71f2adb7a4e0652c92a090",
	"random-8":                    "be941a8ff883bb21ea3a3586443e0c35bd17813f62c09140ea9913db68db3714",
	"random-9":                    "95b34839cb76c66c33298830e0ea5edbb6ada2450ca269d69a7fa932a5e007c2",
	"table1-alloc-outbound":       "f213c92112321d17301a3272a30eec2fc77671fad909011f5dddf8171ebfd608",
	"table1-forever_ordered":      "059fadd99ae4ef3bf75d09eeecd90f0e0372c473b0664f2f0e835d6468d18b7c",
	"table1-imec-master-read.csc": "45d7ec9cfe106238ac5f2c26199a6cb40f4edd879d30ebe76146180408712c95",
	"table1-mp-forward-pkt":       "1df5551f0b9b06f8398c14632bcd7347fcbe6e1ec85d2e7f26c24692df24197f",
	"table1-nak-pa":               "ad33fca92e7b9acb4b332923950c600324f8da6052bb063cf986355158d3f82a",
	"table1-nowick":               "d0ab7ee309787254c79f1d959a3aaca4f23a658d88d6fe2bae1cb01c3b487262",
	"table1-nowick.asn":           "11128641a7e1f0401b1b0e5f526cea3ab8253b0a0cd3fc22f2220cd07b1d5ac2",
	"table1-par_4.csc":            "68de5cf64cab2d238ce2058b2548f3bd78b904048f9ae496d56f9a934d356044",
	"table1-pe-send-ifc":          "f135033b511e98039604d9ac17ad0f38873626d724bdf031d7cf143c8bb83dcb",
	"table1-pn_stg_example":       "6db0602906e8b32d0fb97a8892a3a74d91aa5bf30de515465f2909e24b97671f",
	"table1-ram-read-sbuf":        "802c62132371d3790693a3ee600b2120ca4f89e8a55fa66dcb36131ddeb67793",
	"table1-rcv-setup":            "2414321be3f0f20ec53ae75e93388a7839868917e44f8b4fcee18a7c7a635c3b",
	"table1-sbuf-ram-write":       "7f16b1296638ddb27aed5318353c5606f04b2ca23848dd174e1312838cfbe0cc",
	"table1-sbuf-read-ctl":        "fd298f479beb5e714470b0100630363b8fb2d49dfa85b1d70bec187349b5a5b3",
	"table1-sbuf-read-ctl.old":    "37e958111686b5416dc28bbdf7ea122fe1fcbbd30785f42f11a2303b4da94461",
	"table1-sbuf-send-ctl":        "8be8698e5c01f55c24b2b51a5158dc43afcb3e3d63987b1c5404cbed377e7541",
	"table1-sbuf-send-pkt2":       "df8acac062a04e324862e3ed545845451c4ce151525074ede0d6afd96c32ec39",
	"table1-sbuf-send-pkt2.yun":   "ac1f42cb32c069b92583c5b53d86f7fc8655ad7eaf0b84f74cdcd09b43606bbb",
	"table1-sendr-done":           "90f3ff63407076f6412fc912b184910b4620bb9012b49d7e9b9d9d71dee47b7e",
	"table1-sis-master-read.csc":  "9d0b222dd3fbd154135dcd46c32c0e7f8a300e40e118a180502fdc476b44ed39",
	"table1-tsbmSIBRK":            "63e0dea265f5484f0b27dab3ba8fdff9fc0be94bfc56420b1fe63e08f82cf553",
	"testdata-csc.g":              "677f27b0b50ae621d9f9a3b78c0df0f0d83c2b69efb97967e6f0cfd06ad8197f",
	"testdata-fig1.g":             "0702e02073331f278dcbbce2ac17abeb08848ba0838b990a4ee15d30251712e0",
	"testdata-nonsm.g":            "f030b0cc5761e87f192d39cbe1508d7bfde7248566712f760f45c8251cd5c1a0",
	"testdata-pipeline24.g":       "6be3856715fb0cf807ed9f0e44d794c3cef84a30979935b1249d99653950acf1",
	"testdata-twoloops.g":         "bcc8bd023e4b5521ae25d39aa3727b940ce7d18ee6cd75e9a10d30f5be477bd6",
}

// checkInstances fails unless the n-th transition of every signal edge, in
// transition ID order, carries instance number n.
func checkInstances(t *testing.T, name string, g *stg.STG) {
	t.Helper()
	seen := map[stg.Label]int{}
	for tr := range g.Net().NumTransitions() {
		l := g.Label(petri.TransitionID(tr))
		if l.IsDummy {
			continue
		}
		key := stg.Label{Signal: l.Signal, Dir: l.Dir}
		seen[key]++
		if l.Instance != seen[key] {
			t.Errorf("%s: %s is instance %d of its edge, labelled %d",
				name, g.TransitionString(petri.TransitionID(tr)), seen[key], l.Instance)
		}
	}
}

// TestInstanceNumbering checks AddTransition's instance numbers and the .g
// text of every corpus spec, built and after a write/parse round trip, and
// the numbers a Clone and its original go on to give, independently.
func TestInstanceNumbering(t *testing.T) {
	specs := labelCorpus(t)
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := specs[name]
		checkInstances(t, name, g)
		text := stg.Format(g)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != textGolden[name] {
			t.Errorf("%s: .g text hash %s, want %s", name, got, textGolden[name])
		}
		g2, err := stg.ParseString(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		checkInstances(t, name+" reparsed", g2)
		if stg.Format(g2) != text {
			t.Errorf("%s: write/parse round trip changed the text", name)
		}
		c := g.Clone()
		for sig := range c.NumSignals() {
			c.AddTransition(sig, stg.Plus)
			c.AddTransition(sig, stg.Minus)
		}
		checkInstances(t, name+" clone", c)
		for sig := range g.NumSignals() {
			g.AddTransition(sig, stg.Plus)
		}
		checkInstances(t, name+" extended after cloning", g)
	}
}
