package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
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
// (not a refactor) legitimately moves it; SIM_GOLDEN_DUMP=<dir> writes each
// row's log to <dir>/<mode>-<seed>.log, so two commits' logs can be diffed.
//
// Three protocol changes, one layout change and one schedule change have. The two-communication
// remote spawn (fetch-add + put-signal, with a cached credit instead of a
// per-send probe of the slot)
// re-recorded churn seeds 1, 2, 4, 5 and 8 — the schedules in which a
// departing PE forwards tasks through the inbox. Publishing the owner's
// termination counts at hand-offs instead of per task re-recorded
// fault-free 4, 5, 7, chaos 1, 3, 7, kill 4, 5, 7 and churn 2, 5, 6, 8: the
// leader's counter gets read lagged counts there, so its wave takes another
// pass (fault-free 4 first differs after the get of PE 3's counters). No
// op, wait poll or PRNG draw moved before that point, and the other 19 rows
// did not move with it. Giving every symmetric allocation whole cache lines
// (shmem.LineSize) re-recorded all 32 rows and moved only addresses: with
// a=0x[0-9a-f]+ masked, each row's dumped log is byte-identical to its
// parent's — same ops, values, times and draws. The kill rows were
// re-recorded twice more: when KillForSeed moved its crash inside the run
// (20–170µs of virtual time instead of 0.1–2ms, by which time every PE had
// finished), then when term's degraded pass stopped loading each peer's
// activity word after the get of its counters (one get reads both; each
// row first differs there, or, in kill 7, where a pass begun before the
// death declaration reads past the newly dead PE instead of failing on it).
var simLogGolden = map[string][8]string{
	"fault-free": {
		"86741381ace51257effa7e2b8d3289a3d5c8a77ec0bf00a168600d1486fed1c6",
		"505ea72d45922bc1c67d3f4e0b9fd5e67516e89caa9e2c682d8d26b16cf8447f",
		"59b1b22e35c006914c65ebb6a2f01b712b5ef7e174137405caa441965245d945",
		"7ea8fcb85a3e95f0689a999069e8b80bd8f389f3d4e665e837fc96a469ac307c",
		"cd6b7f6623f6b91afae4ab54ed5de2066f11936745d521ebc5af8db1cd939e00",
		"7f11e45405e4f09ecbe0bfa71593526aefedbf0a89736a34ac9a3c9b318ebe8a",
		"f8d7798bb5fc7334c8c8a9b9184cc5bfd9b79b453c76e9a7694abe5e9606f609",
		"8bd1f74d777b765b8ef924c6b50b6e4e1d7e59582cf995f922a4a05b90762ee1",
	},
	"chaos": {
		"82501fd1632df14730c943ea802b8a506d0d1bf64ccac54c228a333fd46062aa",
		"51a249f43f05adcd3a94827fe3aa556898ab4e85be42861a2a2a9b88dc50e31d",
		"8b4e4ae91f48eb6e5d27a0483c29f1f85e8fe6f9debfa3f0cad18557d183f8f8",
		"5d8d02275df5fe2613c1285901870b54ec55998247818671a0d32738ca305b04",
		"286462713040fa68f8eb9558b8de4c474f27c430eee76f1469f09672b2e4774e",
		"fa8d89873325d6d7df493b7baac183fea56a77d36882616399d7fc082576603e",
		"970c0f599873c4e9b2557a7077c8e773167240c4169d4a55e978cf9b38185dbb",
		"7ba0da3c8d1f7a928b722d9d07adb9020cb7f1c035d708d7f127721c2794fcd6",
	},
	"kill": {
		"24d8a4c373c3f3d0fc70ba5fca813f92ddf0f0a89d54d56edb8cd1247f6211df",
		"170b5946ebc760eea84af73408594bc34c74f062246da39ada9113deaf29ef3c",
		"c46bbd4f9d2e488914737fa17b346073642d3959e98c056ff600854b3f878bb2",
		"05a0443f74b4d87fb65f8b521d521f073e617425bcd9414e8d7c771bd17ea97c",
		"f8252fed45ab3b1c98210279a9d98650d924fefbabbd5e5e389858a53393b610",
		"d1db2204e739ae6b961be904f8c9c92a88193fcf2364f40b406ccf02f2e01113",
		"9c8173ba92949a0c28346c7a52b6a5c11847c177f6e5f35b713e76449834b76d",
		"697ab853674c0ae1003c9b345d639902d92cbcbcb5d0b4e925fc090f7de69044",
	},
	"churn": {
		"a1ea8ef689dfe3dc37efb2538cb921289b374a411a248ecfe0c41088bf7dc37f",
		"d2621e4530a0b923825e8cde6263c14c05622de50641b31d89a8e6969509d607",
		"f24dee9c45ed09a78fd65c926fc064a8032d8edf5c65a1d551df837c717fc3fc",
		"1e968a30bea1457226bdfd479585f17dcbcc8c29f94c560d68c18285676936b6",
		"78157558497cb244164828eb7d081ebd4dcc6cbc28088bbf7d9b06d89c27e31f",
		"daac240d2ceb26f7520774f239a449ddb21190d7a1324a907486fc4d153b5091",
		"79ece1bb987d3be0d6fc3d097cadb0aae8b426ceef3d8f237db118703810d573",
		"dbf66df6bb95dfe786daf10ac0aecc2394bf392f9fe45313a0202ad228ab5c23",
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
	dump := os.Getenv("SIM_GOLDEN_DUMP")
	for _, m := range goldenModes {
		for seed := int64(1); seed <= 8; seed++ {
			log, err := Run(m.params(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			if dump != "" {
				if err := os.WriteFile(filepath.Join(dump, fmt.Sprintf("%s-%d.log", m.name, seed)), log, 0o644); err != nil {
					t.Fatal(err)
				}
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
