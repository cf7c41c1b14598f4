package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"punt/internal/unfolding"
)

// coversDigest hashes what cover derivation hands to espresso for every
// output signal of g, in order: the cube list of each on- and off-set term
// after refinement, term by term and cube by cube in the order they were
// built, with each term's exactness and any refinement error.  Unlike the
// sorted Cover.String, it pins the order of the terms and of their cubes.
// One deriver serves every signal, as in Synthesize.
func coversDigest(u *unfolding.Unfolding) string {
	d := newDeriver(u, u.Causality())
	h := sha256.New()
	for _, sig := range u.STG.OutputSignals() {
		on, off := d.buildSlices(sig)
		sa := d.approximateSignal(sig, on, off)
		_, err := refine(u, sa)
		fmt.Fprintf(h, "signal %s\n", u.STG.Signal(sig).Name)
		for _, side := range []struct {
			name  string
			terms []*approxTerm
		}{{"on", sa.OnTerms}, {"off", sa.OffTerms}} {
			for _, term := range side.terms {
				io.WriteString(h, side.name)
				if term.Exact {
					io.WriteString(h, " exact")
				}
				for _, cb := range term.Cover.Cubes() {
					io.WriteString(h, " "+cb.String())
				}
				io.WriteString(h, "\n")
			}
		}
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCoversGolden pins the approximated and refined term covers of every
// output signal of the oracle corpus (the Table 1 suite, the four Figure 6
// specs, the random controllers, Figure 1 and a choice controller) to their
// SHA-256 digests.  Figure 6's golden equation hashes are taken after
// espresso, which can map different covers to the same equations; these are
// taken before it.
func TestCoversGolden(t *testing.T) {
	want := map[string]string{
		"imec-master-read.csc": "7114c50ab0d321a0d12e7ed0b1e67919320d59a55f49199e00333c658c2fba4e",
		"nowick.asn":           "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"nowick":               "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"par_4.csc":            "ac3fbf2523bbb542f094099052e54cbdb7ccf0b2b1ffd35a30cfb4eac2fb6099",
		"sis-master-read.csc":  "46d8d41dc260ed5c1b659d6777dd2fc7ac357931316af1a1b91dcb220a8113ac",
		"tsbmSIBRK":            "bad56d813abd3693fa4e6235358ce661c4c89c45643f3dc678b6bcac50ab3a9b",
		"pn_stg_example":       "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"forever_ordered":      "5797d5ee3afaee6f8ebe6dc55c7268e020da3096cf24c731e8e98b3f249b87a7",
		"alloc-outbound":       "3829ee9573800fff2c5d8e4432283f7e054c04508869b69f163b6ca3f4e5f1ca",
		"mp-forward-pkt":       "f267c4ba63706d700404717af33598eb8b8f3469dff044cac8489f4af02a8ea3",
		"nak-pa":               "c9144078df7c089a06926fc9df2005aa111678d6bded4d9b452025fcb0cb0986",
		"pe-send-ifc":          "fa0d9d77e0fc15eb08501c3ba2784a7de1247bc4ed1650d54e3652a3bb36c9ac",
		"ram-read-sbuf":        "d100716830523c402e6a645e5a82a8ad86cc5b23dfe4fa15194c9be457b7bd6b",
		"rcv-setup":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"sbuf-ram-write":       "56432c7af8a3ee1c110852e54d11cee5b7cf5205ab64f197375937bf643a6611",
		"sbuf-read-ctl.old":    "e32fe925d8a07b8a8302f207fd8ce3d72e5cfaa30fdacf651d827918fea87f39",
		"sbuf-read-ctl":        "e32fe925d8a07b8a8302f207fd8ce3d72e5cfaa30fdacf651d827918fea87f39",
		"sbuf-send-ctl":        "5797d5ee3afaee6f8ebe6dc55c7268e020da3096cf24c731e8e98b3f249b87a7",
		"sbuf-send-pkt2":       "3829ee9573800fff2c5d8e4432283f7e054c04508869b69f163b6ca3f4e5f1ca",
		"sbuf-send-pkt2.yun":   "39b50201c4d7ad70cc1b3e9b16d0e855eeafd5e269d2d618f06a53372f2165fa",
		"sendr-done":           "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"pipeline-22":          "6326883e555babbef8da9c61bb373c584022a57d178c2969a2f0704c3f383725",
		"pipeline-34":          "2bb598ae9418a6da43824b8d4a53e1bb40310c9ffc2c82bc5a28fa7985e0ecc5",
		"pipeline-50":          "ed6b05141424203bd7ca8835b12daccf4cad084d0213f2da48cee5d018ec24ab",
		"counterflow":          "e7b11614da30bb5262d70e991852d3176d5b2f798d1f7cffbf9eae3d1bc64669",
		"random-1":             "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-2":             "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"random-3":             "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"random-4":             "5797d5ee3afaee6f8ebe6dc55c7268e020da3096cf24c731e8e98b3f249b87a7",
		"random-5":             "39b50201c4d7ad70cc1b3e9b16d0e855eeafd5e269d2d618f06a53372f2165fa",
		"random-6":             "f0fc3cadf813026d83bdf8cb297bf29e5aaa6c8eb322701492d60c90da50b26f",
		"random-7":             "d100716830523c402e6a645e5a82a8ad86cc5b23dfe4fa15194c9be457b7bd6b",
		"random-8":             "60842cfa15470bd42de3fbafc3612a3636e97e15a18e55ae11e949b39b00da15",
		"random-9":             "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"random-10":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-11":            "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"random-12":            "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"random-13":            "e32fe925d8a07b8a8302f207fd8ce3d72e5cfaa30fdacf651d827918fea87f39",
		"random-14":            "39b50201c4d7ad70cc1b3e9b16d0e855eeafd5e269d2d618f06a53372f2165fa",
		"random-15":            "f0fc3cadf813026d83bdf8cb297bf29e5aaa6c8eb322701492d60c90da50b26f",
		"random-16":            "1b06f307d707715dee7fc3dbc7df25b2a13eb4abba77fcaa5e357986c75110ad",
		"random-17":            "4111eede77148c8f4f7ab766912a83eff396a393502bdede2b67765b17f8a2d3",
		"random-18":            "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"random-19":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-20":            "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"random-21":            "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"random-22":            "5797d5ee3afaee6f8ebe6dc55c7268e020da3096cf24c731e8e98b3f249b87a7",
		"random-23":            "3829ee9573800fff2c5d8e4432283f7e054c04508869b69f163b6ca3f4e5f1ca",
		"random-24":            "1fc9a91ed7c8cc315f49565b7f701b89234f67851f3b36a32f7708b939942057",
		"random-25":            "d100716830523c402e6a645e5a82a8ad86cc5b23dfe4fa15194c9be457b7bd6b",
		"random-26":            "d16f811402f7f44e9b4780f8424a077ebf4501fb096e1eaf7aad621095b6143c",
		"random-27":            "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"random-28":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-29":            "651dc457ba03956f0b186fa6ac35b9903cc1700d2ab4ca998b4ddb89b9daa3a6",
		"random-30":            "651dc457ba03956f0b186fa6ac35b9903cc1700d2ab4ca998b4ddb89b9daa3a6",
		"random-31":            "5797d5ee3afaee6f8ebe6dc55c7268e020da3096cf24c731e8e98b3f249b87a7",
		"random-32":            "3829ee9573800fff2c5d8e4432283f7e054c04508869b69f163b6ca3f4e5f1ca",
		"random-33":            "f0fc3cadf813026d83bdf8cb297bf29e5aaa6c8eb322701492d60c90da50b26f",
		"random-34":            "d100716830523c402e6a645e5a82a8ad86cc5b23dfe4fa15194c9be457b7bd6b",
		"random-35":            "b54cd5ed27568a049b5d2515c2d008a462b2eaf8c48baa0d427f05d0beb056e1",
		"random-36":            "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"random-37":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-38":            "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"random-39":            "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"random-40":            "e32fe925d8a07b8a8302f207fd8ce3d72e5cfaa30fdacf651d827918fea87f39",
		"random-41":            "39b50201c4d7ad70cc1b3e9b16d0e855eeafd5e269d2d618f06a53372f2165fa",
		"random-42":            "c9144078df7c089a06926fc9df2005aa111678d6bded4d9b452025fcb0cb0986",
		"random-43":            "de6c0042f600927a316cd77b73e09b982200fa9a9cfd32032087c50a318dcf4c",
		"random-44":            "89dfa576b5e5471d507357a72f4a8e8691d35eadafe2dc2e6e7862f94ab0890d",
		"random-45":            "755880fe85cbe82e65fce337e4dead9200c2be815a0c6604634b160ea6396163",
		"random-46":            "ad872b0a36b9febf0a29b300cea3f32986d5556c6f2fe5e71175878ff209f553",
		"random-47":            "3b2ed85d0f0a2e0ffe0990153b4e8b5d1466deddae7fe8577598d61912b7b853",
		"random-48":            "f2c77711e5952578301c81363be5bb2673ce348a1fdfcdd24565da50024718be",
		"random-49":            "e32fe925d8a07b8a8302f207fd8ce3d72e5cfaa30fdacf651d827918fea87f39",
		"random-50":            "3829ee9573800fff2c5d8e4432283f7e054c04508869b69f163b6ca3f4e5f1ca",
		"fig1":                 "2385c7af279c76d11cf19fad4aef9a336a80ece0d7d98e02be18d4296a204c58",
		"choice-16":            "18d18e1bd66771cf257301eee3423b74fc929951362f8b95fdc286c61a8bd342",
	}
	for _, spec := range oracleCorpus() {
		u, err := unfolding.Build(context.Background(), spec.g, unfolding.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if got := coversDigest(u); got != want[spec.name] {
			t.Errorf("%s: covers digest %s, want %s", spec.name, got, want[spec.name])
		}
	}
}
