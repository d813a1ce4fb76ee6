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
// Two protocol changes have. The two-communication remote spawn (fetch-add +
// put-signal, with a cached credit instead of a per-send probe of the slot)
// re-recorded churn seeds 1, 2, 4, 5 and 8 — the schedules in which a
// departing PE forwards tasks through the inbox. Publishing the owner's
// termination counts at hand-offs instead of per task re-recorded
// fault-free 4, 5, 7, chaos 1, 3, 7, kill 4, 5, 7 and churn 2, 5, 6, 8: the
// leader's counter gets read lagged counts there, so its wave takes another
// pass (fault-free 4 first differs after the get of PE 3's counters). No
// op, Relax or PRNG draw moved before that point, and the other 19 rows
// did not move with it.
var simLogGolden = map[string][8]string{
	"fault-free": {
		"98fc1a57a561fa91965e4e9fb9bc0dd17c6d6c03c7777cfdb6e515c82cb5832c",
		"dadad28296d8adef383486e3b7b3eb23385e1783c095c19dbde4eec71f1c482a",
		"ea64b99337c0e1a28c6c29c4df752ef792c30cb8c7fbe17d9eb6b69649b6dc32",
		"d9442229e4fe4de31108abb345f0fadabc5648b8ec60093de7cae38e6d3c2f3a",
		"207d2b113c2f2ffc752767723201ec311722b287a01dea7a00043406d310a56d",
		"34c16418a418783443ed6e3cc15dcecacc7648127ba5e046aa6453acd268ebc9",
		"67836e05298d0cdf0215d61641007ee14d74a3dddd8e255739481466757fb450",
		"ef81173000a90b28d5a3db8130224847914d30392ccc228bf3c5122ba7df285d",
	},
	"chaos": {
		"11af5d1e2b4e87558ed8c883efb8a94a324c67bd05f7423006916a5c49b6ccb7",
		"1811b703a47f4244b72e65a365072be78cdf1a84c9006da059fed3c903a3f00a",
		"51a619326e84f83d8170ca08616ab3e05cfa5d3512f008fafaa1edca15af349b",
		"baf71f0e99f77ce036c549f7b6f0700987f944599f981426e676ff4178386b10",
		"e0c7fb630814029539d8ae13023bc4e6266e541eaea551dede7d482eba5faf7f",
		"0d359b1a6e0aae2b9ff158db5cdc66308b8a6a104785c63cb48c10518197be0b",
		"8b0d6da91d0f7851ed1deab2c09107a8d628945536120af2d89b2e0f3f04d19d",
		"28ea37ed1ae30a74f230abde2cc756fad3a58c6506f38ca9039b77504bdb2ad8",
	},
	"kill": {
		"f48e38456915c6ee293d1593d9b761bff412fa5176f26af43b69cd7c717f92cd",
		"4205a83293c834b5f6514c2c3a090407752135a5f6d1a8cc2e50663fe5efe628",
		"02b90b6a058fa3fcbaaffc47a35a0c92d233510e4abf39e3fe4ecfdee1d53ab3",
		"d188ef52633aaa748952e92cc5fc857e4a2720771a7803e3ec552dea02c89900",
		"f90620a05a9da1b4898b4f47c1906c739afec51d848d6da494d4fe783f01a479",
		"21b873596f146f4f5b0d27848f0556b0814d96247a8aaa7fdd218a105de40be1",
		"3b5e68b2ded0255bf58bcade3374f367ee9a921b1733c6be6b9a489af4a1c911",
		"f53e1045814815f00c8623c63a5b0c08cd0a3f8925f85810ff775bee886f3527",
	},
	"churn": {
		"124036f42c515bbd648538ab0012d48884148faefc89bcad0a157b550d048a80",
		"f7e032133793e92ab7557212442340408f170a3aaed59ae9d19ffc5a93e6f526",
		"ccfc342fc308ed2600eca6908833bbbe2fd86dda275d197154c85b10f5c79562",
		"c0cbc24e5b416c3d3a3e8175463cd731b8b8c96dbe3a865b35bed1399c4ec6f0",
		"4483af5aac43789ee8f79556aec27e5da6be0246f255e6d8e6c3bedb720b5fa2",
		"48711a1eda8dfcdf772e8e4a4bc0d67dd4d138d27aac6970fc60ba312f5ced81",
		"10cd108e05a1444059b566b3df808126dea870f12ef7cf8b94dc721a77748e33",
		"5e54077eeffcf87deaf03af11cbd98a2c2d0ffdd074ef9d432e5d65e13e7325a",
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
