package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"sws/internal/shmem"
)

// simLogGolden pins the sim event log across commits, not just across two
// runs of one binary: each entry is the SHA-256 of the SimOptions.Log bytes
// of a 4-PE BPC pool run (depth 6, width 12) on seeds 1–8, recorded at the
// commit before internal/shmem's op pipeline was collapsed onto one
// descriptor and one apply. A refactor that claims "zero behaviour change"
// must reproduce every hash — same PRNG draw order, same log lines. Print
// the current table with SIM_GOLDEN_PRINT=1 when a change to the protocol
// (not a refactor) legitimately moves it.
//
// One protocol change has: the two-communication remote spawn (fetch-add +
// put-signal, with a cached credit instead of a per-send probe of the slot)
// re-recorded churn seeds 1, 2, 4, 5 and 8 — the schedules in which a
// departing PE forwards tasks through the inbox. The other 27 rows never
// touch the inbox and are the originals.
var simLogGolden = map[string][8]string{
	"fault-free": {
		"98fc1a57a561fa91965e4e9fb9bc0dd17c6d6c03c7777cfdb6e515c82cb5832c",
		"dadad28296d8adef383486e3b7b3eb23385e1783c095c19dbde4eec71f1c482a",
		"ea64b99337c0e1a28c6c29c4df752ef792c30cb8c7fbe17d9eb6b69649b6dc32",
		"9290c935eafd484d3def65d2bae361003b5143d3d1881c9ae297b2628872f1db",
		"9da699369fe4a658ca10988b3c421d0961bef44542d64278265fca089af8f515",
		"34c16418a418783443ed6e3cc15dcecacc7648127ba5e046aa6453acd268ebc9",
		"53cc53f15a35addc120fc42c0e2df8d50ff8a8e26b47a3f3b567cb5d530a7aea",
		"ef81173000a90b28d5a3db8130224847914d30392ccc228bf3c5122ba7df285d",
	},
	"chaos": {
		"2b3d4e296e7d1ef3081e9b7b8a5205a6fde7d13d56db66bd333ad6167f15deda",
		"1811b703a47f4244b72e65a365072be78cdf1a84c9006da059fed3c903a3f00a",
		"6d168895c18a5453c5c13a79322c8d8461d7b25988dbe2ec1c69c0ca7b6bc906",
		"baf71f0e99f77ce036c549f7b6f0700987f944599f981426e676ff4178386b10",
		"e0c7fb630814029539d8ae13023bc4e6266e541eaea551dede7d482eba5faf7f",
		"0d359b1a6e0aae2b9ff158db5cdc66308b8a6a104785c63cb48c10518197be0b",
		"a40b2dee77aad6909a4d605784c346afb56df581e5e2f1a415cb5636229e51ad",
		"28ea37ed1ae30a74f230abde2cc756fad3a58c6506f38ca9039b77504bdb2ad8",
	},
	"kill": {
		"f48e38456915c6ee293d1593d9b761bff412fa5176f26af43b69cd7c717f92cd",
		"4205a83293c834b5f6514c2c3a090407752135a5f6d1a8cc2e50663fe5efe628",
		"02b90b6a058fa3fcbaaffc47a35a0c92d233510e4abf39e3fe4ecfdee1d53ab3",
		"75b6ea016a4ca91055eeadf3840339742c7a5a736b4bdfe77d7c3ab5f9d7b6c2",
		"7dd64b5f4110aff3368073597766a43d357d25f1767e120724827ac2f7d9bd4d",
		"21b873596f146f4f5b0d27848f0556b0814d96247a8aaa7fdd218a105de40be1",
		"b6344d5f82cc16defd57f3c39857d83f214a0262856ed6ec44aa4f4c5a8de201",
		"f53e1045814815f00c8623c63a5b0c08cd0a3f8925f85810ff775bee886f3527",
	},
	"churn": {
		"124036f42c515bbd648538ab0012d48884148faefc89bcad0a157b550d048a80",
		"259e1594ec56a6362098fd7a0f4b2bd14f700e0841ea5c49134d9500279e94e0",
		"ccfc342fc308ed2600eca6908833bbbe2fd86dda275d197154c85b10f5c79562",
		"c0cbc24e5b416c3d3a3e8175463cd731b8b8c96dbe3a865b35bed1399c4ec6f0",
		"7c6a1d7d2b354620f8ce17221b456844826c540ef490ce40f8091198d238aa63",
		"06650d0cb8186db2a0c55f98692e4396706ea1a190c24947ab61f5b9067abf37",
		"10cd108e05a1444059b566b3df808126dea870f12ef7cf8b94dc721a77748e33",
		"dc23626c39bd726a3d471f98ce2dc60f78a89cfc20fa4f2286e49361b95f29ee",
	},
}

// goldenModes are the four run shapes the table covers.
var goldenModes = []struct {
	name   string
	params func(seed int64) Params
}{
	{"fault-free", func(seed int64) Params { return Params{PEs: 4, Depth: 6, Width: 12, Seed: seed} }},
	{"chaos", func(seed int64) Params { return Params{PEs: 4, Depth: 6, Width: 12, Seed: seed, Chaos: true} }},
	{"kill", func(seed int64) Params {
		p := Params{PEs: 4, Depth: 6, Width: 12, Seed: seed}
		p.Kill = []shmem.SimKill{KillForSeed(seed, p.PEs)}
		return p
	}},
	{"churn", churnParams},
}

func TestSimLogGolden(t *testing.T) {
	show := os.Getenv("SIM_GOLDEN_PRINT") != ""
	for _, m := range goldenModes {
		for seed := int64(1); seed <= 8; seed++ {
			log, err := Run(m.params(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			sum := sha256.Sum256(log)
			got := hex.EncodeToString(sum[:])
			if show {
				t.Logf("GOLDEN %s %d %s", m.name, seed, got)
				continue
			}
			if want := simLogGolden[m.name][seed-1]; got != want {
				t.Errorf("%s seed %d: event log hash %s, want %s (%d log bytes)", m.name, seed, got, want, len(log))
			}
		}
	}
}
