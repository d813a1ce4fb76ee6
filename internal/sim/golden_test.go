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
// before those is the parent's. Moving the termination detector's words
// into each heap's reserved line (words 4-7, shmem.WordSpawned on), where
// they no longer take an allocation of their own, re-recorded all 32 rows
// and moved only addresses: the leader's get and flag stores name line 0,
// the inbox allocated after the detector sits one line lower, and with
// a=0x[0-9a-f]+ masked each row's dumped log is byte-identical to its
// parent's.
var simLogGolden = map[string][8]string{
	"fault-free": {
		"a73b1b7fae0f557f21d6d9b32b81874ec6813ad6134bee4e44724b4dfae85a87",
		"7b1be890114d838fc6be0cceefce410809124995e91577272d37b75ad2bf287a",
		"b7071df8a4096595fded557e89394fafef6b3774162346c4026d76ba48d55171",
		"c076b001d44834adad4851fe9ca1c382f6bb4c301a3f9fb85c1ec05897b03b6a",
		"21c3348388ff15552cc22e402c3183bf4ba42583a45a307452be2776adafc695",
		"f37748485ef3c5893452fc894207492f854052d19e148bfe48e1a2a5ef687fe6",
		"8a51944ad8e50c88ddfeb1f046776ac6f73910510214a60d7de002c255bed57c",
		"3c6ea72e05de9e6298b2dd8a34a2be3e7df38e8e0136adf6b979fbc9285b9855",
	},
	"chaos": {
		"23193c5aff367c0959b4dee0d7821c1e5c4f02afd4725a857361309ac1e6a9d2",
		"87ca3e849a954c98c77c075116347a7b334bbbe90e5b919e832b470f1a8ec1f6",
		"faa4957c65583e7a0e54f76986586a2f5d383fa2f1509242018f37857351dfc9",
		"a2ae62d404833d40bd338cc81ffe1873fc3b73d6f4b5bdd2ff4bd23fabe9ffb3",
		"aca352eccc19c454ea7522029a81a49934f19a9a3503d1f4361f7e0681ad261b",
		"e4f6d940f2f4da047aedd41ccd193231f31b22d2bf66e06c12050c4e92525204",
		"dc9998bf303e1be1225b365c7251de0d3e05aca8b9814438820356a6e7e8ef4a",
		"8b1cf1248ab4e308ab9754c645e0f1855b5ef0c265cdd858b258ec1b5ece9683",
	},
	"kill": {
		"f6ca35fb811caadf4460873ea337bcbb29537156c833157ff7c613d3421cd915",
		"3b325f443c13e26c64acb4a8c428384e2423982aa1d4bab5a702be1ceff8ec6e",
		"1122877cd34a1a5c226a26aa6a4a04ee78eaaf0c0ca961e1ce553bf0c6944f07",
		"09fcd370c23c39855108a02525666087e77212bdf436e3d300c0a9590d2a660a",
		"7cf60949062a2574f1ce32ea16d2caa5158b0527b4f441d70127b74ea8ee1d79",
		"41e70b9d4fe54c38061cc969797f356b38b9936cf1b87df11a60c7da59f446dc",
		"1aef6ece800fabd7741072516c97b5fa7de01ab45000bc7a63d04036a996f592",
		"4cb483713cf596148a35e7c431ae2bef3136713353b35bb4290d0fcd4ba2938d",
	},
	"churn": {
		"686878084afb3bf172103e87c53b0c07f2c3fb1ddde62b6aeb448bd6c0b44e4f",
		"44d56fcc37e576cd9af0fc613ac72a08d04d51868e44e1650c4957c0ab352406",
		"f3444cf5bd67aab3ea4ee7552e20d5531e12bb0f5efd67c5f134d3b8dfc62000",
		"2fbeebd8b7f3806f56f44f7bb447b3b6eea77fef00eab6b7d126f395cf838ad4",
		"639bd1032f7bcdf14b27e50614cafb1b116e3b8d758f4afbf7d336d8cabc8a01",
		"dca4d3faf94e2123613b2228168d2c0a8072d1708e24001750a4261382b8d620",
		"ce22b5dae3cd218fe05658c2ca6e30e28c3024aa9798414766582e2ec33ea35a",
		"d29a92cf8f7f15ca88ca5451d458c6e86ba59b7a981be0db1e861a64925c2217",
	},
}

// goldenModes are the four run shapes the table covers.
var goldenModes = []struct {
	name   string
	params func(seed int64) Params
}{
	{"fault-free", func(seed int64) Params {
		return Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed}}, Depth: 6, Width: 12}
	}},
	{"chaos", func(seed int64) Params {
		return Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed, Chaos: true}}, Depth: 6, Width: 12}
	}},
	{"kill", func(seed int64) Params {
		p := Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed}}, Depth: 6, Width: 12}
		p.World.Sim.Kill = []shmem.SimKill{KillForSeed(seed, p.World.NumPEs)}
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
