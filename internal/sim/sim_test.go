package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// Explorer knobs, settable from the command line. ReproLine prints the
// matching invocation for any failing configuration.
var (
	flagSeed  = flag.Int64("sim.seed", 1, "base seed for sim runs / sweeps")
	flagSeeds = flag.Int("sim.seeds", 64, "number of seeds TestSeedSweep explores")
	flagPEs   = flag.Int("sim.pes", 4, "simulated PEs")
	flagDepth = flag.Int("sim.depth", 6, "BPC producer-chain depth")
	flagWidth = flag.Int("sim.width", 12, "BPC consumers per producer")
	flagChaos = flag.Bool("sim.chaos", false, "randomize schedule among near-simultaneous candidates")
	flagQCap  = flag.Int("sim.qcap", 0, "task-queue capacity in slots (0 = library default)")
	flagProto = flag.String("sim.protocol", "sws", "queue protocol: sws, sdc or sws-fused")

	// Crash-injection replay knobs (printed by ReproLine for kill-sweep
	// failures): kill -sim.killrank at virtual time -sim.killat.
	flagKillRank = flag.Int("sim.killrank", -1, "crash-inject this rank (virtual-time kill; -1 disables)")
	flagKillAt   = flag.Duration("sim.killat", 0, "virtual time of the crash injection")

	// Membership-churn replay knobs (printed by ReproLine for churn-sweep
	// failures): engage elastic membership with -sim.members live ranks,
	// then join/drain "rank@virtualtime" entries.
	flagMembers = flag.Int("sim.members", 0, "initial live members (0 = all PEs; engages elastic membership)")
	flagJoin    = flag.String("sim.join", "", "join churn as rank@virtualtime (e.g. 3@500µs)")
	flagDrain   = flag.String("sim.drain", "", "drain churn as rank@virtualtime (e.g. 1@1ms)")
)

// parseChurn parses a "rank@virtualtime" churn flag.
func parseChurn(t *testing.T, s string, join bool) shmem.SimChurn {
	t.Helper()
	var rank int
	var at string
	if _, err := fmt.Sscanf(s, "%d@%s", &rank, &at); err != nil {
		t.Fatalf("churn flag %q: want rank@duration: %v", s, err)
	}
	d, err := time.ParseDuration(at)
	if err != nil {
		t.Fatalf("churn flag %q: %v", s, err)
	}
	return shmem.SimChurn{Rank: rank, At: d, Join: join}
}

func flagParams() Params {
	p := Params{
		PEs:      *flagPEs,
		Depth:    *flagDepth,
		Width:    *flagWidth,
		Seed:     *flagSeed,
		Chaos:    *flagChaos,
		QueueCap: *flagQCap,
	}
	var err error
	if p.Protocol, err = pool.ParseProtocol(*flagProto); err != nil {
		panic(err)
	}
	if *flagKillRank >= 0 {
		p.Kill = []shmem.SimKill{{Rank: *flagKillRank, At: *flagKillAt}}
	}
	return p
}

// churnFlagParams folds the -sim.members/-sim.join/-sim.drain knobs in
// (separate from flagParams so the non-churn sweeps stay agnostic).
func churnFlagParams(t *testing.T) Params {
	p := flagParams()
	p.InitialMembers = *flagMembers
	if *flagJoin != "" {
		p.Churn = append(p.Churn, parseChurn(t, *flagJoin, true))
	}
	if *flagDrain != "" {
		p.Churn = append(p.Churn, parseChurn(t, *flagDrain, false))
	}
	return p
}

// TestSameSeedByteIdentical is the headline acceptance criterion: the
// same seed produces byte-identical event logs across two full 4-PE BPC
// pool runs under the sim transport.
func TestSameSeedByteIdentical(t *testing.T) {
	p := Params{PEs: 4, Depth: 6, Width: 12, Seed: 42}
	log1, err := Run(p)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	log2, err := Run(p)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(log1) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(log1, log2) {
		d := firstDiff(log1, log2)
		t.Fatalf("same seed produced different event logs (first divergence at byte %d):\nrun1: %s\nrun2: %s",
			d, excerpt(log1, d), excerpt(log2, d))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func excerpt(b []byte, at int) string {
	lo, hi := at-80, at+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}

// TestSeedsDiffer: different seeds must explore different schedules.
func TestSeedsDiffer(t *testing.T) {
	log1, err := Run(Params{PEs: 4, Depth: 4, Width: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log2, err := Run(Params{PEs: 4, Depth: 4, Width: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(log1, log2) {
		t.Fatal("seeds 1 and 2 produced identical event logs — schedule not seed-driven")
	}
}

// TestChaosRun: chaos mode must complete and stay exactly-once.
func TestChaosRun(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if _, err := Run(Params{PEs: 4, Depth: 4, Width: 8, Seed: seed, Chaos: true}); err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
	}
}

// TestReplaySeed is the repro entry point printed by ReproLine: it runs
// exactly the configuration given by the -sim.* flags.
func TestReplaySeed(t *testing.T) {
	p := churnFlagParams(t)
	if _, err := Run(p); err != nil {
		t.Fatalf("replay %v failed:\n%v", p, err)
	}
}

// TestSeedSweep sweeps -sim.seeds seeds starting at -sim.seed. On
// failure it prints each failing seed's repro line and, when
// SIM_ARTIFACT_DIR is set (CI), writes them to failing-seeds.txt so the
// workflow can upload them as an artifact.
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	base := flagParams()
	failures := Sweep(base, *flagSeed, *flagSeeds)
	if len(failures) == 0 {
		return
	}
	var report strings.Builder
	for _, f := range failures {
		min := Minimize(f)
		fmt.Fprintf(&report, "%v\n", min)
	}
	if dir := os.Getenv("SIM_ARTIFACT_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		path := filepath.Join(dir, "failing-seeds.txt")
		if werr := os.WriteFile(path, []byte(report.String()), 0o644); werr != nil {
			t.Logf("writing artifact %s: %v", path, werr)
		} else {
			t.Logf("failing seeds written to %s", path)
		}
	}
	t.Fatalf("%d of %d seeds failed:\n%s", len(failures), *flagSeeds, report.String())
}

// TestSDCSweep runs the Scioto baseline under the lockstep sim over 100
// seeds at 2, 4 and 8 PEs. Its owner spins on its own lock word while a
// thief holds it, and under the sim only that spin's Yield hands the thief
// its turn: a spin that yields the goroutine instead never returns.
func TestSDCSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("SDC sweep skipped in -short mode")
	}
	for _, pes := range []int{2, 4, 8} {
		base := Params{PEs: pes, Depth: 8, Width: 8, Protocol: pool.SDC}
		for _, f := range Sweep(base, 1, 100) {
			t.Errorf("%v", f)
		}
	}
}

// TestChaosKillSweep is the chaos kill-a-PE sweep: -sim.seeds seeds, each
// with a seed-derived victim and virtual-time kill point, under chaos
// scheduling. Every run must still terminate for the survivors with
// at-most-once execution, and replay to the same event log byte for byte.
// Failures print repro lines (TestReplaySeed with -sim.killrank/-sim.killat)
// and, when SIM_ARTIFACT_DIR is set (CI), land in failing-seeds.txt for
// artifact upload.
func TestChaosKillSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos kill sweep skipped in -short mode")
	}
	base := flagParams()
	base.Chaos = true
	var failures []Failure
	for i := 0; i < *flagSeeds; i++ {
		p := base
		p.Seed = *flagSeed + int64(i)
		p.Kill = []shmem.SimKill{KillForSeed(p.Seed, p.PEs)}
		log, err := Run(p)
		if err == nil {
			if again, _ := Run(p); !bytes.Equal(log, again) {
				err = fmt.Errorf("replay logged differently from byte %d", firstDiff(log, again))
			}
		}
		if err != nil {
			failures = append(failures, Failure{Params: p.withDefaults(), Err: err})
		}
	}
	if len(failures) == 0 {
		return
	}
	var report strings.Builder
	for _, f := range failures {
		fmt.Fprintf(&report, "%v\n", f)
	}
	if dir := os.Getenv("SIM_ARTIFACT_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		path := filepath.Join(dir, "failing-seeds.txt")
		if werr := os.WriteFile(path, []byte(report.String()), 0o644); werr != nil {
			t.Logf("writing artifact %s: %v", path, werr)
		} else {
			t.Logf("failing seeds written to %s", path)
		}
	}
	t.Fatalf("%d of %d kill-sweep seeds failed:\n%s", len(failures), *flagSeeds, report.String())
}

// TestKillReplayDeterministic: a killed run is still part of the
// deterministic schedule — the same seed and kill point must produce
// byte-identical event logs. The rows after the first once replayed
// differently: a poll deadline read the wall clock, and a death
// declaration woke every parked survivor at once, so whichever ran first
// set the log order.
func TestKillReplayDeterministic(t *testing.T) {
	for _, c := range []struct {
		seed int64
		pes  int
	}{{11, 4}, {282, 4}, {128, 4}, {233, 6}, {124, 6}} {
		p := Params{PEs: c.pes, Depth: 6, Width: 12, Seed: c.seed}
		p.Kill = []shmem.SimKill{KillForSeed(p.Seed, p.PEs)}
		want, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for replay := 1; replay <= 4; replay++ {
			got, err := Run(p)
			if err != nil {
				t.Fatalf("%v replay %d: %v", p, replay, err)
			}
			if !bytes.Equal(want, got) {
				d := firstDiff(want, got)
				t.Fatalf("%v: replay %d not deterministic (first divergence at byte %d):\nrun:    %s\nreplay: %s",
					p, replay, d, excerpt(want, d), excerpt(got, d))
			}
		}
	}
}

// TestSimKillBeforeStartGrant: a PE crashed before the scheduler grants
// its start never runs its body, yet must still hand its slot back, or the
// scheduler waits for it forever and no step budget can fire. The survivors
// run the job to the end.
func TestSimKillBeforeStartGrant(t *testing.T) {
	p := Params{PEs: 4, Depth: 6, Width: 12, Seed: 3}
	p.Kill = []shmem.SimKill{{Rank: 1, At: 0}}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(p)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%v: run still going after 10s (the killed PE never released the scheduler)", p)
	}
}

// overflowParams is the full-queue configuration: 8-slot queues under a
// BPC shape whose producers burst 25 pushes, so every PE's spawns keep
// overflowing into its private deque and refilling the queue while thieves
// steal. Chaos scheduling widens the interleavings each seed explores.
func overflowParams(seed int64) Params {
	return Params{PEs: 4, Depth: 6, Width: 24, Seed: seed, Chaos: true, QueueCap: 8}
}

// TestOverflowSameSeedByteIdentical: overflow and refill are part of the
// deterministic schedule — a full-queue run must replay byte-identically
// from its seed.
func TestOverflowSameSeedByteIdentical(t *testing.T) {
	p := overflowParams(42)
	log1, err := Run(p)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	log2, err := Run(p)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !bytes.Equal(log1, log2) {
		d := firstDiff(log1, log2)
		t.Fatalf("overflowing run not deterministic (first divergence at byte %d):\nrun1: %s\nrun2: %s",
			d, excerpt(log1, d), excerpt(log2, d))
	}
}

// TestOverflowSweep sweeps seeds over the full-queue configuration: every
// run must stay exactly-once while spawns overflow into the owners'
// private deques and flow back under concurrent steals. The nightly CI job
// runs this at -sim.seeds=1000; failures print TestReplaySeed repro lines
// (with -sim.qcap) and minimize like any other sweep failure.
func TestOverflowSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("overflow sweep skipped in -short mode")
	}
	// The sweep is only evidence if the configuration actually overflows:
	// prove it on the first seed before spending the rest.
	probe := overflowParams(*flagSeed)
	var st stats.PE
	probe.Stats = &st
	if _, err := Run(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if st.TasksSpilled == 0 {
		t.Fatalf("overflow-sweep configuration never filled a queue (stats: %+v) — the sweep would test nothing", st)
	}
	base := overflowParams(*flagSeed)
	failures := Sweep(base, *flagSeed, *flagSeeds)
	if len(failures) == 0 {
		return
	}
	var report strings.Builder
	for _, f := range failures {
		min := Minimize(f)
		if min.Params.QueueCap != base.QueueCap {
			t.Errorf("minimizer dropped the queue capacity: %v -> %v", f.Params, min.Params)
		}
		fmt.Fprintf(&report, "%v\n", min)
	}
	if dir := os.Getenv("SIM_ARTIFACT_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		path := filepath.Join(dir, "failing-seeds.txt")
		if werr := os.WriteFile(path, []byte(report.String()), 0o644); werr != nil {
			t.Logf("writing artifact %s: %v", path, werr)
		} else {
			t.Logf("failing seeds written to %s", path)
		}
	}
	t.Fatalf("%d of %d overflow-sweep seeds failed:\n%s", len(failures), *flagSeeds, report.String())
}

// churnParams is the membership-churn configuration: a 4-PE world that
// starts with rank 3 parked, joins it mid-run, and drains a seed-derived
// victim shortly after — a join and a drain racing live steal traffic
// under chaos scheduling, with the strict exactly-once oracle (voluntary
// transitions are loss-free, so nothing may be dropped or re-run).
func churnParams(seed int64) Params {
	p := Params{PEs: 4, Depth: 6, Width: 12, Seed: seed, Chaos: true}
	p.InitialMembers, p.Churn = ChurnForSeed(seed, p.PEs)
	return p
}

// TestChurnReplayDeterministic: membership transitions are part of the
// deterministic schedule — the same seed and churn schedule must produce
// byte-identical event logs.
func TestChurnReplayDeterministic(t *testing.T) {
	p := churnParams(42)
	log1, err := Run(p)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	log2, err := Run(p)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(log1) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(log1, log2) {
		d := firstDiff(log1, log2)
		t.Fatalf("churned run not deterministic (first divergence at byte %d):\nrun1: %s\nrun2: %s",
			d, excerpt(log1, d), excerpt(log2, d))
	}
}

// TestChurnSweep sweeps seeds over the churn configuration: every run
// joins one PE and drains another mid-run and must stay exactly-once with
// zero lost tasks. The nightly CI job runs this at -sim.seeds=1000;
// failures print TestReplaySeed repro lines (with -sim.members/-sim.join/
// -sim.drain) and land in failing-seeds.txt when SIM_ARTIFACT_DIR is set.
func TestChurnSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweep skipped in -short mode")
	}
	// The sweep is only evidence if the churn actually happens: prove a
	// drain and a join complete on the first seed before spending the rest.
	probe := churnParams(*flagSeed)
	var st stats.PE
	probe.Stats = &st
	if _, err := Run(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if st.MemberDrains == 0 || st.MemberJoins == 0 {
		t.Fatalf("churn configuration completed %d drains / %d joins — the sweep would test nothing", st.MemberDrains, st.MemberJoins)
	}
	if st.TasksLost != 0 {
		t.Fatalf("probe run lost %d tasks under voluntary churn", st.TasksLost)
	}
	var failures []Failure
	for i := 0; i < *flagSeeds; i++ {
		p := churnParams(*flagSeed + int64(i))
		if _, err := Run(p); err != nil {
			failures = append(failures, Failure{Params: p.withDefaults(), Err: err})
		}
	}
	if len(failures) == 0 {
		return
	}
	var report strings.Builder
	for _, f := range failures {
		fmt.Fprintf(&report, "%v\n", f)
	}
	if dir := os.Getenv("SIM_ARTIFACT_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		path := filepath.Join(dir, "failing-seeds.txt")
		if werr := os.WriteFile(path, []byte(report.String()), 0o644); werr != nil {
			t.Logf("writing artifact %s: %v", path, werr)
		} else {
			t.Logf("failing seeds written to %s", path)
		}
	}
	t.Fatalf("%d of %d churn-sweep seeds failed:\n%s", len(failures), *flagSeeds, report.String())
}

// TestSystematicSmoke enumerates every forced schedule prefix of length 4
// over 3 candidate choices on a small world — the bounded systematic mode
// around the initial steal/acquire/release interleavings.
func TestSystematicSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("systematic sweep skipped in -short mode")
	}
	failures := Systematic(Params{PEs: 3, Depth: 3, Width: 4, Seed: *flagSeed}, 4, 3)
	if len(failures) > 0 {
		t.Fatalf("%d forced-prefix runs failed; first: %v", len(failures), failures[0])
	}
}

// TestExplorerCatchesInjectedFault is the harness's own acceptance test:
// inject a seeded fault on purpose (dropping one-sided NBI stores, which
// carry steal-completion notifications and termination flags), verify the
// explorer catches it, that the printed seed replays the failure, and
// that minimization shrinks the configuration.
func TestExplorerCatchesInjectedFault(t *testing.T) {
	base := Params{
		PEs: 4, Depth: 4, Width: 8,
		// Every NBI store vanishes: completion notifications never land,
		// termination flags never arrive — the world must detectably
		// stall (virtual-time budget or reset-stall error), never
		// terminate early or double-execute.
		Fault: func(seed int64) shmem.FaultInjector {
			return &shmem.DropFaults{Fraction: 1.0, Ops: []shmem.Op{shmem.OpStoreNBI}, Seed: seed}
		},
		MaxVirtualTime: 100_000_000, // 100ms virtual: fail fast
		MaxSteps:       300_000,
	}
	failures := Sweep(base, 1, 4)
	if len(failures) == 0 {
		t.Fatal("explorer missed a fault that drops every completion/termination store")
	}
	f := failures[0]
	t.Logf("caught: %v", f.Err)
	t.Logf("repro:  %s", ReproLine(f.Params))

	// The printed seed must replay deterministically.
	p := f.Params
	_, err1 := Run(p)
	if err1 == nil {
		t.Fatal("replay of failing seed passed")
	}
	_, err2 := Run(p)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("failure does not replay identically:\nfirst:  %v\nsecond: %v", err1, err2)
	}

	// Minimization must not lose the failure.
	min := Minimize(f)
	if min.Err == nil {
		t.Fatal("minimized configuration does not fail")
	}
	if min.Params.PEs > f.Params.PEs || min.Params.Depth > f.Params.Depth || min.Params.Width > f.Params.Width {
		t.Fatalf("minimization grew the configuration: %v -> %v", f.Params, min.Params)
	}
	t.Logf("minimized: %v", min.Params)
}

// BenchmarkSimBPC times the sim's scheduler on BPC runs large enough that
// it, not the pool, sets the pace, and reports the cost of one scheduler
// decision (a delivery or a PE wake, with the PE's work up to its next
// park).
func BenchmarkSimBPC(b *testing.B) {
	for _, p := range []Params{
		{PEs: 16, Depth: 100, Width: 64, Seed: 1},
		{PEs: 256, Depth: 50, Width: 64, Seed: 1},
	} {
		b.Run(fmt.Sprintf("pes=%d", p.PEs), func(b *testing.B) {
			var steps, total uint64
			for i := 0; i < b.N; i++ {
				if _, err := runSteps(p, &steps); err != nil {
					b.Fatal(err)
				}
				total += steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/step")
		})
	}
}
