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
// heap unlogged and releases the PEs parked on its generation word.
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
		"10558ce03b4bfe5cb54331adf2a9914a3d94a940caeb603d118e63c1c671c605",
		"52a8042e93f78f4f92f53642fb86018ccd13ef4b82ee569eff4bd983f7a17ee3",
		"3f58130c80c006798d653b346ad49be183a85111f5e58db815b13fed0b8de488",
		"a2e6103396728491a355897abead6338ce59e0652d17dcb04851959035b78db2",
		"9db0332c7d523cbf5c5cabc701a9f974be163741063a9d820c1362f10bdb87d5",
		"dc542225efcaedd7e4c0620acb8a0c7e53704ccac5b3c2a6d47573fe6b1885ee",
		"314bfeafe6c4860e02de01499b45c386519694285a14ae3258cee89223aca58a",
		"da7be8be93b2a9f6c3dbff9649a486c59e3fbd76d6e93130bbf28afdcfc9c8ac",
	},
	"churn": {
		"36649d4709e50bd87f43277072b8424c7ecb333703ee0846581d515d9e5e05cb",
		"efabf61b727f68f6446341a8bd9f6d6cf2770684b8ec9a5f0aab9802e5f24c2c",
		"46a48f6caa0d5e74fa7c61d98be1c660427c0d511e733e2019c41ee600046a0f",
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
