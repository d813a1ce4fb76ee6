package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
	flagSeeds  = flag.Int("sim.seeds", 64, "number of seeds TestSeedSweep explores")
	flagParams = simFlags(flag.CommandLine)
)

// flagSeed is -sim.seed: the replayed seed, and the first seed of a sweep.
func flagSeed() int64 { return flagParams().World.Sim.Seed }

// simFlags registers on fs the -sim.* flags that name one run — the ones
// ReproLine prints — and returns what reads them back as Params.
func simFlags(fs *flag.FlagSet) func() Params {
	var p Params
	sim := &p.World.Sim
	fs.Int64Var(&sim.Seed, "sim.seed", 1, "base seed for sim runs / sweeps")
	fs.IntVar(&p.World.NumPEs, "sim.pes", 4, "simulated PEs")
	fs.IntVar(&p.Depth, "sim.depth", 6, "BPC producer-chain depth")
	fs.IntVar(&p.Width, "sim.width", 12, "BPC consumers per producer")
	fs.BoolVar(&sim.Chaos, "sim.chaos", false, "randomize schedule among near-simultaneous candidates")
	fs.Func("sim.choices", "forced schedule-choice prefix, comma-separated (e.g. 0,2,1)", func(s string) error {
		sim.Choices = nil
		for _, c := range strings.Split(s, ",") {
			v, err := strconv.ParseUint(c, 10, 8)
			if err != nil {
				return err
			}
			sim.Choices = append(sim.Choices, byte(v))
		}
		return nil
	})
	fs.IntVar(&p.Pool.QueueCapacity, "sim.qcap", 0, "task-queue capacity in slots (0 = library default)")
	fs.Func("sim.protocol", "queue protocol: sws, sdc or sws-fused", func(s string) (err error) {
		p.Pool.Protocol, err = pool.ParseProtocol(s)
		return err
	})
	// Crash injections: -sim.killrank at virtual time -sim.killat, then any
	// further ones as -sim.kill=rank@virtualtime.
	killRank := fs.Int("sim.killrank", -1, "crash-inject this rank (virtual-time kill; -1 disables)")
	killAt := fs.Duration("sim.killat", 0, "virtual time of the crash injection")
	var kills []shmem.SimKill
	fs.Func("sim.kill", "a further crash injection as rank@virtualtime (repeatable)", func(s string) error {
		rank, at, err := parseRankAt(s)
		kills = append(kills, shmem.SimKill{Rank: rank, At: at})
		return err
	})
	fs.DurationVar(&p.World.DeadAfter, "sim.deadafter", 0, "failure-detector window in virtual time (0 = harness default)")
	// Membership churn: -sim.members live ranks at the start, then join and
	// drain entries in the order given.
	fs.IntVar(&p.InitialMembers, "sim.members", 0, "initial live members (0 = all PEs; engages elastic membership)")
	churn := func(join bool) func(string) error {
		return func(s string) error {
			rank, at, err := parseRankAt(s)
			sim.Churn = append(sim.Churn, shmem.SimChurn{Rank: rank, At: at, Join: join})
			return err
		}
	}
	fs.Func("sim.join", "join churn as rank@virtualtime, e.g. 3@500µs (repeatable)", churn(true))
	fs.Func("sim.drain", "drain churn as rank@virtualtime, e.g. 1@1ms (repeatable)", churn(false))
	fs.DurationVar(&sim.MaxVirtualTime, "sim.maxtime", 0, "virtual-time budget (0 = world default)")
	fs.Uint64Var(&sim.MaxSteps, "sim.maxsteps", 0, "scheduler-decision budget (0 = world default)")
	return func() Params {
		q := p
		q.World.Sim.Kill = kills
		if *killRank >= 0 {
			q.World.Sim.Kill = append([]shmem.SimKill{{Rank: *killRank, At: *killAt}}, kills...)
		}
		return q
	}
}

// parseRankAt parses a "rank@virtualtime" flag value.
func parseRankAt(s string) (int, time.Duration, error) {
	rank, at, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want rank@duration", s)
	}
	r, err := strconv.Atoi(rank)
	if err != nil {
		return 0, 0, err
	}
	d, err := time.ParseDuration(at)
	return r, d, err
}

// TestSameSeedByteIdentical is the headline acceptance criterion: the
// same seed produces byte-identical event logs across two full 4-PE BPC
// pool runs under the sim transport.
func TestSameSeedByteIdentical(t *testing.T) {
	p := Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: 42}}, Depth: 6, Width: 12}
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
	log1, err := Run(Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: 1}}, Depth: 4, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	log2, err := Run(Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: 2}}, Depth: 4, Width: 8})
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
		if _, err := Run(Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed, Chaos: true}}, Depth: 4, Width: 8}); err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
	}
}

// TestReplaySeed is the repro entry point printed by ReproLine: it runs
// exactly the configuration given by the -sim.* flags.
func TestReplaySeed(t *testing.T) {
	p := flagParams()
	if _, err := Run(p); err != nil {
		t.Fatalf("replay %v failed:\n%v", p, err)
	}
}

// TestReproLineRoundTrip: the line ReproLine prints, read back by
// TestReplaySeed's flags, names exactly the run it was printed for — a
// forced prefix, every kill, the budgets and the detector window included.
// A run with a Fault factory cannot be named by flags, and its line says so.
func TestReproLineRoundTrip(t *testing.T) {
	for _, p := range []Params{
		{World: shmem.Config{NumPEs: 3, Sim: shmem.SimOptions{Seed: 7, Choices: []byte{0, 2, 1, 1}}}, Depth: 3, Width: 4},
		{World: shmem.Config{NumPEs: 5, Sim: shmem.SimOptions{Seed: 11, Chaos: true, Kill: []shmem.SimKill{
			{Rank: 1, At: 30 * time.Microsecond}, {Rank: 4, At: 90 * time.Microsecond}}}}},
		{World: shmem.Config{DeadAfter: time.Millisecond, Sim: shmem.SimOptions{Seed: 5, MaxVirtualTime: 100 * time.Millisecond, MaxSteps: 300_000}},
			Pool: pool.Config{Protocol: pool.SDC, QueueCapacity: 8}},
		churnParams(3),
	} {
		line := ReproLine(p)
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		read := simFlags(fs)
		if err := fs.Parse(strings.Fields(line[strings.Index(line, " -sim."):])); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got, want := read().withDefaults(), p.withDefaults(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s\nreads back as %v\nwant         %v", line, got, want)
		}
	}
	faulty := Params{Fault: func(int64) shmem.FaultInjector { return nil }}
	if line := ReproLine(faulty); !strings.Contains(line, "not a replay") {
		t.Errorf("a run with a Fault factory prints %q as its replay", line)
	}
}

// TestMinimizeKeepsItsKill: shrinking a failing kill run never drops the
// world below its victim's rank, where the sim would skip the kill and
// the minimized line would replay a fault-free run.
func TestMinimizeKeepsItsKill(t *testing.T) {
	p := Params{
		World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{
			Seed: 1, MaxVirtualTime: 100 * time.Millisecond, MaxSteps: 300_000,
			Kill: []shmem.SimKill{{Rank: 3, At: 50 * time.Microsecond}},
		}},
		Depth: 4, Width: 8,
		// Every NBI store vanishes, so every configuration fails.
		Fault: func(seed int64) shmem.FaultInjector {
			return &shmem.DropFaults{Fraction: 1.0, Ops: []shmem.Op{shmem.OpStoreNBI}, Seed: seed}
		},
	}
	_, err := Run(p)
	if err == nil {
		t.Fatal("a run that drops every NBI store passed")
	}
	min := Minimize(Failure{Params: p, Err: err})
	if min.Params.World.NumPEs < 4 {
		t.Fatalf("minimized to %v: the kill of rank 3 no longer runs", min.Params)
	}
	if min.Params.Depth >= p.Depth && min.Params.Width >= p.Width {
		t.Errorf("minimized to %v: nothing shrank", min.Params)
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
	failures := Sweep(base, flagSeed(), *flagSeeds)
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
		base := Params{World: shmem.Config{NumPEs: pes}, Depth: 8, Width: 8, Pool: pool.Config{Protocol: pool.SDC}}
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
	base.World.Sim.Chaos = true
	var failures []Failure
	for i := 0; i < *flagSeeds; i++ {
		p := base
		p.World.Sim.Seed = flagSeed() + int64(i)
		p.World.Sim.Kill = []shmem.SimKill{KillForSeed(p.World.Sim.Seed, p.World.NumPEs)}
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
		p := Params{World: shmem.Config{NumPEs: c.pes, Sim: shmem.SimOptions{Seed: c.seed}}, Depth: 6, Width: 12}
		p.World.Sim.Kill = []shmem.SimKill{KillForSeed(p.World.Sim.Seed, p.World.NumPEs)}
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
	p := Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: 3}}, Depth: 6, Width: 12}
	p.World.Sim.Kill = []shmem.SimKill{{Rank: 1, At: 0}}
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
	return Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed, Chaos: true}}, Depth: 6, Width: 24, Pool: pool.Config{QueueCapacity: 8}}
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
	probe := overflowParams(flagSeed())
	var st stats.PE
	probe.Stats = &st
	if _, err := Run(probe); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if st.TasksSpilled == 0 {
		t.Fatalf("overflow-sweep configuration never filled a queue (stats: %+v) — the sweep would test nothing", st)
	}
	base := overflowParams(flagSeed())
	failures := Sweep(base, flagSeed(), *flagSeeds)
	if len(failures) == 0 {
		return
	}
	var report strings.Builder
	for _, f := range failures {
		min := Minimize(f)
		if min.Params.Pool.QueueCapacity != base.Pool.QueueCapacity {
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
	p := Params{World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{Seed: seed, Chaos: true}}, Depth: 6, Width: 12}
	p.InitialMembers, p.World.Sim.Churn = ChurnForSeed(seed, p.World.NumPEs)
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
	probe := churnParams(flagSeed())
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
		p := churnParams(flagSeed() + int64(i))
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
	failures := Systematic(Params{World: shmem.Config{NumPEs: 3, Sim: shmem.SimOptions{Seed: flagSeed()}}, Depth: 3, Width: 4}, 4, 3)
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
		Depth: 4, Width: 8,
		// Every NBI store vanishes: completion notifications never land,
		// termination flags never arrive — the world must detectably
		// stall (virtual-time budget or reset-stall error), never
		// terminate early or double-execute.
		Fault: func(seed int64) shmem.FaultInjector {
			return &shmem.DropFaults{Fraction: 1.0, Ops: []shmem.Op{shmem.OpStoreNBI}, Seed: seed}
		},
		World: shmem.Config{NumPEs: 4, Sim: shmem.SimOptions{
			MaxVirtualTime: 100_000_000, // 100ms virtual: fail fast
			MaxSteps:       300_000,
		}},
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
	if min.Params.World.NumPEs > f.Params.World.NumPEs || min.Params.Depth > f.Params.Depth || min.Params.Width > f.Params.Width {
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
		{World: shmem.Config{NumPEs: 16, Sim: shmem.SimOptions{Seed: 1}}, Depth: 100, Width: 64},
		{World: shmem.Config{NumPEs: 256, Sim: shmem.SimOptions{Seed: 1}}, Depth: 50, Width: 64},
	} {
		b.Run(fmt.Sprintf("pes=%d", p.World.NumPEs), func(b *testing.B) {
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
