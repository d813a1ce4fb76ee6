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
// Running the sim's barrier as the world's one (barrier.go) re-recorded all
// 32 rows: each dumped log first differs from its parent's at the parent's
// first "bar gen=" line, where the sim's own barrier logged its release and
// drew a staggered wake per PE; the one barrier lands its ops on rank 0's
// heap unlogged and releases the PEs parked on its generation word. The
// kill rows moved once more when a thief whose steal finds its victim dead
// reseated its victim set instead of drawing the rank and skipping it: each
// first differs a few lines after its "ded" line (kill 1: line 283 of a
// log whose "ded" is line 275), where a survivor's draw sees one victim
// fewer; before it every line, op and draw is the parent's. Churn 1 and 3
// moved when a busy PE began reading its inbox on the obs.SampleEvery beat
// instead of every pass: a batch a departing PE forwards now waits for the
// receiver's beat, so the next steal from the receiver finds a different
// block: churn 1 first differs at line 36 (seq 38), a thief's fetch-add
// five lines after the forwarded batch's put-signal lands on line 31, and
// churn 3 at line 59 (seq 61), four lines after its put-signal. Every line
// before those is the parent's.
var simLogGolden = map[string][8]string{
	"fault-free": {
		"3d5c300f0c3cf58e9b42ba8fe47ea103db93bd61c1062c3fd0439a6625b86580",
		"cf1918f018d55ecca60ef09f5c756c4edb66691e5082f715bce7f72656c73f6c",
		"635de5e65d714de8ead7f8b1195cf5a5ebfba2712047cc1dd92708f16e2235b2",
		"f02afc4a3e98b6aaf3e6d4d8163c6ff2dd08bc60494ffe5f56f02ed22f373c23",
		"58c598152f413513c80ee2e4b96d78b206abe78529766154f574aabefe5ac12d",
		"a34c4b65ef45c35c7827b7cb869c1f907ba38ea4eac51b73b5b0f8e07930d53f",
		"4110f1879d913f6fbc902c301885e2decc9832f0f1fdc80295b301e1953bb2b0",
		"0634f1cc4b6fa85d25ae75e1deb2c79859383e42dfb1f96327c19d1d205bcdaf",
	},
	"chaos": {
		"4d7c45e11ce694486d242f23343d9bb8ac867bbe6edef9e56b28e77ce82fb855",
		"f39777f4b5ba7208ab3f7cdc96d806506f04bda936e375edd1a5c0028ef713ca",
		"127df84824ba32edf0f6a9c7479c737343db0763b1cbaa256c2286a58d4ee8a5",
		"a97d2dbd4d338bea04dc9298c6b1310fb4b2a6a7a2bed055c1f542129acc5ecb",
		"f14df7feb2770e69d5d351018ef7e3eecb62040cf7c31f0edf58a7f3422c0f5e",
		"cd5eb9c93fec931ed6897554b9de092c1bbcf937804fefe94131ee7de7c34de4",
		"efe6e8d6cbba29664667eadf181c157dd2e2f0bdedf19ab21dfaa96f7f9b7e0d",
		"341d78879b05b5fd9ab0722b695638f37ba487ef4aaa2f330f9f9b375f90b548",
	},
	"kill": {
		"a8199fc926e6420789947643cd7b7bda01e29ec9e5c3306d3a943a502c0d0137",
		"9bd3ff925995de644a33a7da854f924a3836e689bdf7ed116ca9e02133ba9722",
		"92be5e4ebdc1be9473ef7ebb8e8c03174c9dc20e3450036d9da06faa56c0cd38",
		"59474d0138c9bbdcc7f29b61d97905047bc462d2a1a106423f3854cbef8d5f0a",
		"6dc81cb072d28ebd0bdc1f404444c52b344b4aeeb79cb414ae79678fd41a54c7",
		"201c049899d245e0b7025f6e02d1f41b086cc058134f07c73f37b58442129631",
		"b975e8c30718a7f149e9c02bc993da91e13361280caecd2e3ad1d9df879342ca",
		"41f4d35fb369372ba58ba03f5b6a0c19b517f0b402165db0a765c7d6b12cf279",
	},
	"churn": {
		"b5ef11fc5ff94a926785b76e544f800bf622e4a94dd9b58109895eee399f3456",
		"efabf61b727f68f6446341a8bd9f6d6cf2770684b8ec9a5f0aab9802e5f24c2c",
		"0591593e27f50d8780d5fb357ba4aca7f7206a83eead6569cfba86f096fa1cd1",
		"42ee8e3e4b9daa081fa5b71e8ea74c7c19e6d0c6b90fbc9ed270215df5625bbe",
		"2be63c19e6066ed49ece37399c395ed05dc202029f13fd0a9d4d0fafcf0ca1b1",
		"77b84ec847dea1bf483a2ad7b16efc5d58badf864445f77c41f7e934f3d5aa13",
		"5de8f67863c53c3a1e5ab156bb02a72a2deafe6d528bcfba4e81015b89db1b3a",
		"056737898aaae1ca497ccaa111cbaca4764df7814a2b0be2d3b69a7ba96ea016",
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
