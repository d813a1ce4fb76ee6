package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
)

// churnWorkload runs a binary-split range workload over a 4-PE world with
// an exactly-once audit: the root task covers [0, leaves), splitters halve
// their range, and each leaf increments its own audit slot. trigger fires
// once, from a task body, after threshold leaves have run — the hook the
// tests use to begin a drain or join mid-job, guaranteed to land while
// work is still in flight. Each leaf computes for 5 µs, so the job
// outlasts the transition and the first steals that follow it even when
// the PEs share their cores with other processes.
func churnWorkload(t *testing.T, leaves, threshold int, world func(w *shmem.World), trigger func(w *shmem.World)) (*shmem.World, []stats.PE, []int32) {
	t.Helper()
	w, sts, _, audit := churnRun(t, leaves, threshold, world, trigger)
	return w, sts, audit
}

// churnRun is churnWorkload, also returning each PE's termination passes.
func churnRun(t *testing.T, leaves, threshold int, world func(w *shmem.World), trigger func(w *shmem.World)) (*shmem.World, []stats.PE, []uint64, []int32) {
	t.Helper()
	audit := make([]int32, leaves)
	var ran atomic.Int64
	var once sync.Once
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if world != nil {
		world(w)
	}
	var mu sync.Mutex
	sts, probes := make([]stats.PE, 4), make([]uint64, 4)
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("range", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 2)
			if err != nil {
				return err
			}
			lo, hi := int(args[0]), int(args[1])
			if hi-lo == 1 {
				tc.Compute(5 * time.Microsecond)
				atomic.AddInt32(&audit[lo], 1)
				if ran.Add(1) == int64(threshold) {
					once.Do(func() { trigger(w) })
				}
				return nil
			}
			mid := lo + (hi-lo)/2
			if err := tc.Spawn(h, task.Args(uint64(lo), uint64(mid))); err != nil {
				return err
			}
			return tc.Spawn(h, task.Args(uint64(mid), uint64(hi)))
		})
		p, err := New(c, reg, Config{Seed: 7, QueueCapacity: 4096})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(0, uint64(leaves))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		mu.Lock()
		sts[c.Rank()], probes[c.Rank()] = p.Stats(), p.det.Probes
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, sts, probes, audit
}

// auditExactlyOnce fails unless every leaf executed exactly once.
func auditExactlyOnce(t *testing.T, audit []int32) {
	t.Helper()
	for i, n := range audit {
		if n != 1 {
			t.Fatalf("leaf %d executed %d times, want exactly once", i, n)
		}
	}
}

// TestDrainIsLossFree is the drain acceptance test: rank 2 begins a drain
// in the middle of a 4-PE job, flushes its inventory into the remaining
// members, and parks — with every task still executing exactly once,
// zero tasks lost, and the run never entering degraded mode.
func TestDrainIsLossFree(t *testing.T) {
	w, sts, audit := churnWorkload(t, 4096, 400, nil, func(w *shmem.World) {
		if err := w.Live().BeginDrain(2); err != nil {
			t.Errorf("BeginDrain(2): %v", err)
		}
	})
	auditExactlyOnce(t, audit)
	var total stats.PE
	for _, st := range sts {
		total.Add(st)
	}
	if total.TasksLost != 0 {
		t.Fatalf("TasksLost = %d under a voluntary drain, want 0", total.TasksLost)
	}
	if total.Degraded {
		t.Fatal("voluntary drain flagged the run degraded")
	}
	lv := w.Live()
	if got := lv.State(2); got != shmem.PeerParked {
		t.Fatalf("rank 2 state = %v after the job, want parked", got)
	}
	if sts[2].MemberDrains != 1 {
		t.Fatalf("rank 2 completed %d drains, want 1", sts[2].MemberDrains)
	}
	if lv.Drains() != 1 {
		t.Fatalf("world counted %d drains, want 1", lv.Drains())
	}
	if lv.DrainDurations().Empty() {
		t.Fatal("drain-duration histogram is empty after a completed drain")
	}
	if n := len(lv.Members(nil)); n != 3 {
		t.Fatalf("membership size = %d after drain, want 3", n)
	}
}

// TestJoinMidRun is the join acceptance test: the world starts with rank
// 3 parked, rank 3 joins mid-job, becomes a steal victim, executes real
// work, and the termination wave (which must now include it) still
// declares exactly-once completion.
func TestJoinMidRun(t *testing.T) {
	w, sts, audit := churnWorkload(t, 8192, 400,
		func(w *shmem.World) {
			if err := w.SetInitialMembers(3); err != nil {
				t.Fatal(err)
			}
		},
		func(w *shmem.World) {
			if err := w.Live().BeginJoin(3); err != nil {
				t.Errorf("BeginJoin(3): %v", err)
			}
		})
	auditExactlyOnce(t, audit)
	var total stats.PE
	for _, st := range sts {
		total.Add(st)
	}
	if total.TasksLost != 0 {
		t.Fatalf("TasksLost = %d, want 0", total.TasksLost)
	}
	lv := w.Live()
	if !lv.Member(3) {
		t.Fatalf("rank 3 state = %v after joining, want a member", lv.State(3))
	}
	if sts[3].MemberJoins != 1 {
		t.Fatalf("rank 3 completed %d joins, want 1", sts[3].MemberJoins)
	}
	if sts[3].TasksExecuted == 0 {
		t.Fatal("joined rank 3 executed no tasks — never became a victim/worker")
	}
	if n := len(lv.Members(nil)); n != 4 {
		t.Fatalf("membership size = %d after join, want 4", n)
	}
}

// A parked rank 0 keeps the termination wave: drained mid-job, it runs
// the passes from stepParked, no other rank runs one, and the job still
// ends exactly-once.
func TestParkedLeaderRunsTheWave(t *testing.T) {
	w, sts, probes, audit := churnRun(t, 4096, 400, nil, func(w *shmem.World) {
		if err := w.Live().BeginDrain(0); err != nil {
			t.Errorf("BeginDrain(0): %v", err)
		}
	})
	auditExactlyOnce(t, audit)
	if s := w.Live().State(0); s != shmem.PeerParked || sts[0].MemberDrains != 1 {
		t.Fatalf("rank 0 is %v after %d drains, want parked after 1", s, sts[0].MemberDrains)
	}
	if probes[0] == 0 {
		t.Fatal("parked rank 0 ran no termination pass")
	}
	for r, n := range probes[1:] {
		if n != 0 {
			t.Errorf("rank %d ran %d termination passes while rank 0 lived", r+1, n)
		}
	}
}

// A drain that begins on a rank after its last membership step of the job
// (here inside its final search, after the leader's last pass read it)
// completes before Run returns: the rank ends the job parked, not
// draining. The virtual time is this seed's final wave, read off its log.
func TestTransitionEndsWithTheJob(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 3, HeapBytes: 1 << 20, Transport: shmem.TransportSim,
		Sim: shmem.SimOptions{Seed: 1, Churn: []shmem.SimChurn{{Rank: 2, At: 99 * time.Microsecond}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetInitialMembers(3); err != nil {
		t.Fatal(err)
	}
	var h task.Handle
	_, err = RunOnce(w, Config{Seed: 1}, func(_ int, reg *Registry) error {
		h = reg.MustRegister("fan", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			for i := uint64(0); err == nil && i < args[0]; i++ {
				err = tc.Spawn(h, task.Args(0))
			}
			return err
		})
		return nil
	}, func(p *Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(h, task.Args(40))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Live().State(2); s != shmem.PeerParked {
		t.Fatalf("rank 2 is %v after Run, want parked", s)
	}
}

// TestDrainRejectsEmptyMembership: the last member cannot drain.
func TestDrainRejectsEmptyMembership(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lv := w.Live()
	if err := lv.BeginDrain(0); err != nil {
		t.Fatalf("first drain refused: %v", err)
	}
	if err := lv.CompleteDrain(0); err != nil {
		t.Fatal(err)
	}
	if err := lv.BeginDrain(1); err == nil {
		t.Fatal("draining the last member was allowed")
	}
}

// TestFleetResize: a warm fleet shrinks and regrows between jobs, every
// job stays exactly-once, and parked ranks do no work while parked.
func TestFleetResize(t *testing.T) {
	const pes = 4
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	f, err := NewFleet(w, FleetOptions{
		Pool: Config{Seed: 3},
		Register: func(rank int, reg *Registry) error {
			var h task.Handle
			h = reg.MustRegister("fan", func(tc *TaskCtx, payload []byte) error {
				args, err := task.ParseArgs(payload, 1)
				if err != nil {
					return err
				}
				if args[0] == 0 {
					ran.Add(1)
					return nil
				}
				for i := 0; i < 8; i++ {
					if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
						return err
					}
				}
				return nil
			})
			_ = h
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	job := Job{Seed: func(p *Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		h, _ := p.reg.Lookup("fan")
		return p.Add(h, task.Args(3))
	}}
	const want = 8 * 8 * 8

	runOnce := func(expectLive int) stats.Run {
		t.Helper()
		ran.Store(0)
		res, err := f.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != want {
			t.Fatalf("job ran %d leaves, want %d", got, want)
		}
		if tl := res.Total().TasksLost; tl != 0 {
			t.Fatalf("job lost %d tasks", tl)
		}
		if n := len(w.Live().Members(nil)); w.Live().Elastic() && n != expectLive {
			t.Fatalf("membership size = %d, want %d", n, expectLive)
		}
		return res
	}

	runOnce(pes) // full size, membership layer still inert

	if err := f.Resize(2); err != nil {
		t.Fatal(err)
	}
	res := runOnce(2)
	for _, rank := range []int{2, 3} {
		if got := res.PEs[rank].TasksExecuted; got != 0 {
			t.Fatalf("parked rank %d executed %d tasks", rank, got)
		}
	}

	if err := f.Resize(4); err != nil {
		t.Fatal(err)
	}
	runOnce(4)

	if err := f.Resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	if err := f.Resize(pes + 1); err == nil {
		t.Fatal("Resize past the world size accepted")
	}
}
