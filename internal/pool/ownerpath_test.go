package pool

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sws/internal/core"
	"sws/internal/obs"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// The task-path guards: counts that are exact on any box, so they gate at
// 0 %. For the owner and for an executor alike, spawning, popping and
// running a task allocates nothing; the owner issues no one-sided op on the
// PE's own heap; and at every worker count a busy PE sleeps never, and
// cedes the processor once in obs.SampleEvery tasks.

// runTree runs a binary tree of the given depth on a 1-PE world (no peers,
// so no steals), after setup (if non-nil) has seen the seeded pool, and
// returns the pool, the PE's statistics, its self-targeted op count, its
// back-off step count and its scheduler-yield count over the run.
func runTree(t *testing.T, depth uint64, cfg Config, setup func(*Pool)) (p *Pool, st stats.PE, local, pauses, yields uint64) {
	t.Helper()
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil || args[0] == 0 {
				return err
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		var err error
		if p, err = New(c, reg, cfg); err != nil {
			return err
		}
		if err := p.Add(h, task.Args(depth)); err != nil {
			return err
		}
		if setup != nil {
			setup(p)
		}
		local0, pauses0, yields0 := c.Counters().Snapshot().Local, c.Pauses(), c.Yields()
		if err := p.Run(); err != nil {
			return err
		}
		st, local = p.Stats(), c.Counters().Snapshot().Local-local0
		pauses, yields = c.Pauses()-pauses0, c.Yields()-yields0
		return nil
	})
	if want := uint64(1)<<(depth+1) - 1; st.TasksExecuted != want {
		t.Fatalf("depth %d executed %d tasks, want %d", depth, st.TasksExecuted, want)
	}
	return p, st, local, pauses, yields
}

// TestOwnerPathAllocs pins the owner's spawn -> pop -> execute cycle of a
// 24-byte-payload task at zero allocations (next to core.TestStealAllocs,
// which pins the thief's).
func TestOwnerPathAllocs(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		payload := make([]byte, 24)
		cycle := func() {
			if err := p.Add(h, payload); err != nil {
				t.Error(err)
			}
			d, ok, err := p.q.Pop()
			if err != nil || !ok || len(d.Payload) != len(payload) {
				t.Errorf("pop: ok=%v payload=%d err=%v", ok, len(d.Payload), err)
			}
			if err := p.execute(p.exec.workers[0], d); err != nil {
				t.Error(err)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
			t.Errorf("owner spawn -> pop -> execute allocates %.2f objects/op, want 0", allocs)
		}
		return nil
	})
}

// TestExecutorPathAllocs pins an executor's spawn -> private pop -> execute
// cycle of a 24-byte-payload task at zero allocations: the private deque
// keeps the payload inline and pops into one reused buffer.
func TestExecutorPathAllocs(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		p, err := New(c, reg, Config{Workers: 2})
		if err != nil {
			return err
		}
		ws := p.exec.workers[1] // never started: this goroutine stands in for it
		var touches int
		p.q = &watchedQueue{Queue: p.q, touch: func(string) { touches++ }}
		payload := make([]byte, 24)
		cycle := func() {
			if err := ws.tc.Spawn(h, payload); err != nil {
				t.Error(err)
			}
			d, ok, err := p.nextTask(ws)
			if err != nil || !ok || len(d.Payload) != len(payload) {
				t.Errorf("pop: ok=%v payload=%d err=%v", ok, len(d.Payload), err)
			}
			if err := p.execute(ws, d); err != nil {
				t.Error(err)
			}
			if err := p.share(ws); err != nil {
				t.Error(err)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
			t.Errorf("executor spawn -> pop -> execute allocates %.2f objects/op, want 0", allocs)
		}
		if ws.fromRing != 0 || p.exec.ring.Len() != 0 {
			t.Errorf("the cycle touched the ring: %d taken, %d queued", ws.fromRing, p.exec.ring.Len())
		}
		if touches != 0 {
			t.Errorf("the executor's spawn, pop and run called the protocol queue %d times, want 0: it is the owner's", touches)
		}
		return nil
	})
}

// TestPlainTaskBodyAllocs pins a task body written the plain way —
// task.ParseArgs, then SpawnOn(peer, h, task.Args(...)) and
// Spawn(h, task.Args(...)) — and a seeding Add(h, task.Args(...)) at zero
// allocations, through the whole seed -> run -> flush -> drain -> run cycle
// on a 2-PE world: Args and ParseArgs inline into the caller's frame, and
// no spawn entry point lets its payload escape. One goroutine drives both
// pools (PE 1 waits in a barrier), as in TestRemoteSpawnComms.
func TestPlainTaskBodyAllocs(t *testing.T) {
	receiver := make(chan *Pool, 1)
	var sum uint64 // both PEs' leaves run on this test's goroutine
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		leaf := reg.MustRegister("leaf", func(_ *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 2)
			if err != nil {
				return err
			}
			sum += args[0] + args[1]
			return nil
		})
		hop := reg.MustRegister("hop", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 2)
			if err != nil {
				return err
			}
			if err := tc.SpawnOn(1, leaf, task.Args(args[0]-1, args[1])); err != nil {
				return err
			}
			return tc.Spawn(leaf, task.Args(args[0]+args[1], 0))
		})
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			receiver <- p
			return c.Barrier()
		}
		recv := <-receiver
		runOwned := func(p *Pool, want int) {
			for i := 0; i < want; i++ {
				d, ok, err := p.popOwned()
				if err != nil || !ok {
					t.Errorf("pop %d of %d: ok=%v err=%v", i+1, want, ok, err)
					return
				}
				if err := p.execute(p.exec.workers[0], d); err != nil {
					t.Error(err)
				}
			}
		}
		cycle := func() {
			if err := p.Add(hop, task.Args(3, 5)); err != nil {
				t.Error(err)
			}
			runOwned(p, 2) // the hop, then the leaf it spawned here
			if err := p.flushRemote(); err != nil {
				t.Error(err)
			}
			if got, err := recv.mbox.drain(recv.push, recv.q.PushSlots); err != nil || got != 1 {
				t.Errorf("drained %d of 1, %v", got, err)
			}
			runOwned(recv, 1)
		}
		cycle()
		if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
			t.Errorf("ParseArgs -> SpawnOn(Args) + Spawn(Args), seeded by Add(Args), allocates %.2f objects/op, want 0", allocs)
		}
		// One warm-up plus AllocsPerRun's own warm-up and 500 runs; each
		// cycle's leaves sum (3+5)+0 here and (3-1)+5 on PE 1.
		if want := uint64(502 * 15); sum != want {
			t.Errorf("leaves summed %d, want %d", sum, want)
		}
		return c.Barrier()
	})
}

// TestOwnerPathBypassesOpPipeline: the owner's queue, detector and inbox
// words are its own memory, so the self-targeted ops that do go through
// Ctx.do (counted as Local) follow jobs, releases and acquires — not tasks.
func TestOwnerPathBypassesOpPipeline(t *testing.T) {
	for _, depth := range []uint64{8, 14} {
		_, st, local, _, _ := runTree(t, depth, Config{}, nil)
		if budget := 16 + 4*(st.Releases+st.Acquires); local > budget {
			t.Errorf("depth %d: %d self-targeted ops through Ctx.do for %d tasks, %d releases, %d acquires (budget %d)",
				depth, local, st.TasksExecuted, st.Releases, st.Acquires, budget)
		}
	}
}

// idleIters sums every worker's idle iterations: each polls the PE's one
// wait rule, whose yields and back-off steps the PE counts together.
func idleIters(st stats.PE) uint64 {
	var n uint64
	for _, w := range st.Workers {
		n += w.IdleIters
	}
	return n
}

// TestBusyOwnerNeverSleeps: a worker yields after a task but never enters
// the poll back-off (every 64th step of which sleeps), so the PE's back-off
// steps are bounded by its workers' idle iterations — with executors
// beside the owner too: it is a worker among them, not a feeder that must
// keep out of their way.
func TestBusyOwnerNeverSleeps(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, st, _, pauses, _ := runTree(t, 14, Config{Workers: workers}, nil)
		if idle := idleIters(st); pauses > idle {
			t.Errorf("Workers=%d: %d back-off steps over %d tasks with %d idle iterations",
				workers, pauses, st.TasksExecuted, idle)
		}
	}
}

// TestBusyOwnerYieldCadence: the scheduler yield takes the Go scheduler's
// process-wide lock, so a busy worker makes one only on the exec-sample beat,
// not per task, and there only once the PE has held its core for the compute
// quantum since it last ceded (50 µs; the wait of TaskCtx.Compute follows the
// same rule). With a core per goroutine that is at most one per quantum of
// the job's wall time beside the idle iterations' yields and one per worker.
func TestBusyOwnerYieldCadence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{1, 2} {
		p, st, _, _, yields := runTree(t, 14, Config{Workers: workers}, nil)
		idle, quanta := idleIters(st), uint64((p.Elapsed()+50*time.Microsecond-1)/(50*time.Microsecond))
		if budget := idle + uint64(workers) + quanta; yields == 0 || yields > budget {
			t.Errorf("Workers=%d: %d scheduler yields over %d tasks in %v with %d idle iterations, want 1..%d",
				workers, yields, st.TasksExecuted, p.Elapsed(), idle, budget)
		}
	}
}

// TestBusyOwnerYieldCadenceCrowded: when the PE's goroutines outnumber
// GOMAXPROCS the quantum is 0, and every beat cedes: on a shared core the
// beat is when another PE gets to run (uts.TestBusyPEsShareOneCore). Each
// worker then cedes once in obs.SampleEvery of its tasks, no more.
func TestBusyOwnerYieldCadenceCrowded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers = 2 // the owner and one executor on one P
	_, st, _, _, yields := runTree(t, 14, Config{Workers: workers}, nil)
	idle, beats := idleIters(st), st.TasksExecuted/obs.SampleEvery
	if budget := beats + idle + workers; yields+workers < beats || yields > budget {
		t.Errorf("%d scheduler yields over %d tasks with %d idle iterations, want %d..%d",
			yields, st.TasksExecuted, idle, beats-workers, budget)
	}
}

// TestBusyOwnerReadsInboxOnBeat: the inbox's head signal is a line its
// senders write, so a busy PE reads it on the obs.SampleEvery beat and in
// the passes that find no local work, not once per task. On one PE with no
// executors those passes open the job, acquire, idle into a probe, or end
// the job, and every pass is one of them or runs a task
// (TestOwnerPublishesAtHandOffs).
func TestBusyOwnerReadsInboxOnBeat(t *testing.T) {
	var polls uint64
	_, st, _, _, _ := runTree(t, 14, Config{}, func(p *Pool) {
		drain := p.mbox.ownDrain
		p.mbox.ownDrain = func() (bool, error) { polls++; return drain() }
	})
	dry := 1 + st.Acquires + st.IdleIters + 1
	if budget := (st.TasksExecuted+dry)/obs.SampleEvery + dry; polls == 0 || polls > budget {
		t.Errorf("%d inbox polls for %d tasks, %d acquires and %d idle iterations, want 1..%d",
			polls, st.TasksExecuted, st.Acquires, st.IdleIters, budget)
	}
}

// TestRingCarriesTransfersNotTasks: synchronization inside a PE is paid per
// task that changes hands, not per task — on a tree both workers take part
// in, at most a tenth of the executions came through the shared ring.
func TestRingCarriesTransfersNotTasks(t *testing.T) {
	_, st, _, _, _ := runTree(t, 14, Config{Workers: 2}, nil)
	var fromRing uint64
	for _, w := range st.Workers {
		if w.TasksExecuted == 0 {
			t.Errorf("worker %d executed nothing: %+v", w.ID, st.Workers)
		}
		fromRing += w.FromRing
	}
	if fromRing == 0 || 10*fromRing > st.TasksExecuted {
		t.Errorf("%d of %d tasks went through the ring, want 1..10 %%", fromRing, st.TasksExecuted)
	}
}

// TestReleasePublishesFirst: a released block can be stolen and run on
// another PE, which publishes the execution, so every spawn the owner has
// counted is in the detector's ledger before Release exposes anything —
// the owner counts its spawns in plain fields and publishes only at
// hand-offs like this one.
func TestReleasePublishesFirst(t *testing.T) {
	var releases int
	_, st, _, _, _ := runTree(t, 10, Config{}, func(p *Pool) {
		p.q = &watchedQueue{Queue: p.q, touch: func(op string) {
			if op != "Release" {
				return
			}
			releases++
			if published, _ := p.det.Counts(); published != p.exec.workers[0].nSpawned {
				t.Errorf("release %d: the detector has %d spawns published, the owner counted %d",
					releases, published, p.exec.workers[0].nSpawned)
			}
		}}
	})
	if releases == 0 || st.Releases == 0 {
		t.Fatalf("%d Release calls, %d releases: nothing was checked", releases, st.Releases)
	}
}

// TestOwnerPublishesAtHandOffs: the owner's counts reach the detector at
// hand-offs — job start, releases, mailbox sends, termination probes — and
// on the stepProgress beat, not per task. On one PE with no executors every
// scheduler iteration runs a task, acquires, or idles into a probe.
func TestOwnerPublishesAtHandOffs(t *testing.T) {
	p, st, _, _, _ := runTree(t, 14, Config{}, nil)
	iters := st.TasksExecuted + st.Acquires + st.IdleIters + 1
	budget := st.Releases + st.RemoteSpawnsSent + p.det.Probes + iters/64 + 2
	if pubs := p.det.Publishes; pubs == 0 || pubs > budget {
		t.Errorf("%d detector publishes for %d tasks (%d releases, %d sends, %d probes, %d iterations), want 1..%d",
			pubs, st.TasksExecuted, st.Releases, st.RemoteSpawnsSent, p.det.Probes, iters, budget)
	}
}

// TestDepthSamplesMarkIdleEdges: a PE journals a queue-depth sample only as
// it turns runnable or idle, not on every beat its depth moved, so a busy
// PE's samples do not push the rest of its history out of the flight ring.
// A one-PE chain whose every link leaves a leaf behind moves the depth on
// every beat; it journals at most the two edges.
func TestDepthSamplesMarkIdleEdges(t *testing.T) {
	const links = 20000
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		var link task.Handle
		link = reg.MustRegister("link", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil || args[0] == 0 {
				return err
			}
			if err := tc.Spawn(leaf, nil); err != nil {
				return err
			}
			return tc.Spawn(link, task.Args(args[0]-1))
		})
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if err := p.Add(link, task.Args(links)); err != nil {
			return err
		}
		return p.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, e := range w.Ring(0).Events() {
		if e.Kind == trace.QueueDepth {
			samples++
		}
	}
	if samples > 2 {
		t.Errorf("a %d-link chain journaled %d queue-depth samples, want at most 2 (turning runnable, turning idle)", links, samples)
	}
}

// TestForeignAddDuringRunPanics: a job holds the owner guard from its start
// to its end, so seeding from another goroutine while one runs panics every
// time, naming both spans — not only when it happens to overlap a queue op.
func TestForeignAddDuringRunPanics(t *testing.T) {
	const tries = 100
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var p *Pool
		var msgs []string // appended by the task body, on the owner goroutine
		leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		h := reg.MustRegister("probe", func(*TaskCtx, []byte) error {
			got := make(chan string)
			go func() {
				defer func() { got <- fmt.Sprint(recover()) }()
				_ = p.Add(leaf, nil)
			}()
			msgs = append(msgs, <-got)
			return nil
		})
		var err error
		if p, err = New(c, reg, Config{}); err != nil {
			return err
		}
		for i := 0; i < tries; i++ {
			if err := p.Add(h, nil); err != nil {
				return err
			}
			if _, err := p.RunJob(); err != nil {
				return err
			}
		}
		panicked := 0
		for _, msg := range msgs {
			if strings.Contains(msg, "owner-serialization violated: Add raced with RunJob") {
				panicked++
			}
		}
		if panicked != tries || len(msgs) != tries {
			t.Errorf("%d of %d foreign Adds during a run panicked naming both (%d ran): %q", panicked, tries, len(msgs), msgs)
		}
		return nil
	})
}

// TestSeedsPublishedBeforeTheJobOpens: a seed is counted in its owner's
// plain fields, and RunJob publishes it before the opening barrier. Seeded
// on PE 1 only, a root that runs for 20 ms keeps the leader, PE 0, idle and
// probing all the while; without the seed in the ledger, two clean passes
// over 0 = 0 would end the job under the running root.
func TestSeedsPublishedBeforeTheJobOpens(t *testing.T) {
	var leader atomic.Pointer[Pool]
	var early atomic.Bool
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		root := reg.MustRegister("root", func(*TaskCtx, []byte) error {
			for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
				if leader.Load().bk.terminated.Load() != 0 {
					early.Store(true)
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			leader.Store(p)
		} else if err := p.Add(root, nil); err != nil {
			return err
		}
		return p.Run()
	})
	if early.Load() {
		t.Error("PE 0 saw termination while PE 1's seed was still running")
	}
}

// TestDegradedVerdictWaitsForBusySurvivor: once a peer is dead the leader
// calls the survivors quiescent when two of its passes read the same
// counters, so a busy survivor's published counts must move with every task
// it runs. PE 1 runs a chain — one task queued at a time, so nothing is ever
// released or stolen — while PE 2, which never holds work, is killed: the
// verdict must come after the chain's last link and write nothing off. On
// the lockstep sim the leader makes a pass every few links, so counts
// published only on the stepProgress beat end the job under the chain.
func TestDegradedVerdictWaitsForBusySurvivor(t *testing.T) {
	const links = 4000
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: 3, HeapBytes: 4 << 20, Transport: shmem.TransportSim,
		DeadAfter: 500 * time.Microsecond,
		Sim: shmem.SimOptions{Seed: 1, MaxVirtualTime: 30 * time.Second,
			Kill: []shmem.SimKill{{Rank: 2, At: 100 * time.Microsecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	var atVerdict int64
	var st stats.PE
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("link", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			args, err := task.ParseArgs(payload, 1)
			if err != nil || args[0] == 0 {
				return err
			}
			return tc.Spawn(h, task.Args(args[0]-1))
		})
		p, err := New(c, reg, Config{Seed: 1})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := p.Add(h, task.Args(links-1)); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err // PE 2 unwinds with ErrPEKilled, which Run tolerates
		}
		if c.Rank() == 0 { // the lowest live rank leads the degraded wave
			atVerdict, st = ran.Load(), p.Stats()
		}
		return nil
	})
	if err != nil && !errors.Is(err, shmem.ErrPEKilled) {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatalf("the leader's verdict was not degraded (%d dead): the kill missed the chain", st.DeadPEs)
	}
	if atVerdict != links || st.TasksLost != 0 {
		t.Errorf("the leader ended the job after %d of %d links and wrote off %d tasks, want all run and 0 lost",
			atVerdict, links, st.TasksLost)
	}
}

// TestSpawnOnKilledRankStaysHome: a SpawnOn names a rank, it does not
// require it. PE 1 runs the same chain, and every link also spawns a leaf
// onto PE 2, which is killed early and declared dead DeadAfter later. A
// batch whose send fails lands on its sender once the detector has ruled
// (the sender waits for the verdict), instead of failing the survivors,
// and the world ends without an error. Under the lockstep sim PE 2 is
// killed 100 µs in, and every link runs with nothing written off. Over
// tcp it is killed before the chain is seeded, so no batch can claim a
// ticket: every leaf must land home (no survivor counts one sent). The
// wall-clock row does not require TasksLost == 0: a degraded wave may
// still end the job under a survivor that holds queued work but sat
// descheduled through two of the leader's passes.
func TestSpawnOnKilledRankStaysHome(t *testing.T) {
	const links = 4000
	for _, row := range []struct {
		name string
		cfg  shmem.Config
	}{
		{"sim", shmem.Config{Transport: shmem.TransportSim, DeadAfter: 500 * time.Microsecond,
			Sim: shmem.SimOptions{Seed: 1, MaxVirtualTime: 30 * time.Second,
				Kill: []shmem.SimKill{{Rank: 2, At: 100 * time.Microsecond}}}}},
		{"tcp", shmem.Config{Transport: shmem.TransportTCP, DeadAfter: 200 * time.Millisecond}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.NumPEs, cfg.HeapBytes = 3, 4<<20
			w, err := shmem.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int64
			sts := make([]stats.PE, 3) // each survivor writes its own element
			err = w.Run(func(c *shmem.Ctx) error {
				reg := NewRegistry()
				leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
				var h task.Handle
				h = reg.MustRegister("link", func(tc *TaskCtx, payload []byte) error {
					args, err := task.ParseArgs(payload, 1)
					if err != nil {
						return err
					}
					if ran.Add(1); args[0] == 0 {
						return nil
					}
					if err := tc.SpawnOn(2, leaf, nil); err != nil {
						return err
					}
					return tc.Spawn(h, task.Args(args[0]-1))
				})
				p, err := New(c, reg, Config{Seed: 1})
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					if cfg.Transport == shmem.TransportTCP {
						w.Kill(2) // every pool is built: PE 2 holds no work
					}
					if err := p.Add(h, task.Args(links-1)); err != nil {
						return err
					}
				}
				if err := p.Run(); err != nil {
					return err
				}
				sts[c.Rank()] = p.Stats()
				return nil
			})
			if err != nil && !errors.Is(err, shmem.ErrPEKilled) {
				t.Fatal(err)
			}
			if werr := w.Err(); werr != nil {
				t.Fatalf("world failed: %v", werr)
			}
			st := sts[0]
			if !st.Degraded {
				t.Fatalf("the leader's verdict was not degraded (%d dead): the kill missed the chain", st.DeadPEs)
			}
			if cfg.Transport == shmem.TransportTCP {
				if sent := sts[0].RemoteSpawnsSent + sts[1].RemoteSpawnsSent; sent != 0 {
					t.Errorf("survivors counted %d leaves sent to a rank killed before the first spawn, want all landed home", sent)
				}
				t.Logf("%d of %d links ran, %d tasks written off", ran.Load(), links, st.TasksLost)
			} else if ran.Load() != links || st.TasksLost != 0 {
				t.Errorf("%d of %d links ran and %d tasks were written off, want all run and 0 lost",
					ran.Load(), links, st.TasksLost)
			}
		})
	}
}

// watchedQueue reports every call into the protocol queue it wraps.
type watchedQueue struct {
	wsq.Queue
	touch func(op string)
}

func (q *watchedQueue) Push(d task.Desc) error { q.touch("Push"); return q.Queue.Push(d) }
func (q *watchedQueue) PushSlots(enc []byte, n int) (bool, error) {
	q.touch("PushSlots")
	return q.Queue.PushSlots(enc, n)
}
func (q *watchedQueue) Pop() (task.Desc, bool, error) {
	q.touch("Pop")
	return q.Queue.Pop()
}
func (q *watchedQueue) ReleaseDue() bool      { q.touch("ReleaseDue"); return q.Queue.ReleaseDue() }
func (q *watchedQueue) Release() (int, error) { q.touch("Release"); return q.Queue.Release() }
func (q *watchedQueue) Acquire() (int, error) { q.touch("Acquire"); return q.Queue.Acquire() }
func (q *watchedQueue) Progress() error       { q.touch("Progress"); return q.Queue.Progress() }
func (q *watchedQueue) LocalCount() int       { q.touch("LocalCount"); return q.Queue.LocalCount() }
func (q *watchedQueue) SharedAvail() int      { q.touch("SharedAvail"); return q.Queue.SharedAvail() }
func (q *watchedQueue) Steal(v int) ([]task.Desc, wsq.Outcome, error) {
	q.touch("Steal")
	return q.Queue.Steal(v)
}

// TestExecTimeIsRunTime: a worker's ExecTime is its bursts of back-to-back
// tasks, bodies included, so whatever the host's load it holds every body
// the worker ran and fits in the job: tasks × spin ≤ ExecTime ≤ Elapsed for
// every worker, at one worker and at two. A traced run also times every
// body on its own, one TaskExec event per task.
func TestExecTimeIsRunTime(t *testing.T) {
	const tasks, roots, spin = 16 * obs.SampleEvery, 8, 10 * time.Microsecond
	run := func(workers int, tr *trace.Set) {
		var st stats.PE
		var elapsed time.Duration
		runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
			reg := NewRegistry()
			var left atomic.Int64
			var h task.Handle
			h = reg.MustRegister("spin", func(tc *TaskCtx, _ []byte) error {
				for t0 := time.Now(); time.Since(t0) < spin; {
				}
				if left.Add(-1) >= roots { // roots chains, tasks bodies in all
					return tc.Spawn(h, nil)
				}
				return nil
			})
			p, err := New(c, reg, Config{Workers: workers, Trace: tr})
			if err != nil {
				return err
			}
			left.Store(tasks)
			for range roots {
				if err := p.Add(h, nil); err != nil {
					return err
				}
			}
			if err := p.Run(); err != nil {
				return err
			}
			st, elapsed = p.Stats(), p.Elapsed()
			return nil
		})
		if st.TasksExecuted != tasks {
			t.Fatalf("workers=%d: executed %d tasks, want %d", workers, st.TasksExecuted, tasks)
		}
		for _, w := range st.Workers {
			if lo := time.Duration(w.TasksExecuted) * spin; w.ExecTime < lo || w.ExecTime > elapsed {
				t.Errorf("workers=%d: worker %d ran %d tasks spinning %v each and booked %v, want within [%v, Elapsed %v]",
					workers, w.ID, w.TasksExecuted, spin, w.ExecTime, lo, elapsed)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		run(workers, nil)
	}

	tr, err := trace.NewSet(1, 4*tasks)
	if err != nil {
		t.Fatal(err)
	}
	run(1, tr)
	if n := tr.CountByKind()[trace.TaskExec]; n != tasks {
		t.Errorf("traced run recorded %d TaskExec events for %d tasks", n, tasks)
	}
}

// TestPerTaskWordsOwnTheirCacheLines pins the padding of the small heap
// objects a worker writes (execLayer: reads; mailbox: the owner's outbox
// count, as it sends) on every task. Go packs
// same-size objects into one span, so unpadded, two PEs' worker counters
// can share a cache line — whether they do is decided by goroutine timing at
// construction, which made whole runs of the same binary 20 % apart. A
// 128-byte object is its own size class and 128-aligned; adding a field
// without shrinking the pad would silently undo that.
func TestPerTaskWordsOwnTheirCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(workerState{}); n != 128 {
		t.Errorf("workerState is %d bytes, want 128: adjust its pad", n)
	}
	if n := unsafe.Sizeof(execLayer{}); n != 128 {
		t.Errorf("execLayer is %d bytes, want 128: adjust its pad", n)
	}
	if n := unsafe.Sizeof(privDeque{}); n != 128 {
		t.Errorf("privDeque is %d bytes, want 128: adjust its pad", n)
	}
	if n := unsafe.Sizeof(mailbox{}); n != 256 {
		t.Errorf("mailbox is %d bytes, want 256: adjust its pad", n)
	}
	if n := unsafe.Sizeof(tallyChunk{}); n != 2048 {
		t.Errorf("tallyChunk is %d bytes, want 2048: adjust its pad", n)
	}
}

// TestSymmetricWordsOwnTheirLines is the same rule in the symmetric heap:
// the words a peer reaches on the task path — the stealval and completion
// array a thief fetch-adds and stores, the reserved line that holds the
// detector's words a leader reads, the inbox write cursor a sender
// fetch-adds, the signals it puts and the credit word it fetches — each start on a cache line, and the allocation
// after each starts past its last line, on every back-end, with every
// rank's heap line-aligned. Packed word by word, one line held a PE's
// detector words, its inbox cursor and its first signals, and every remote
// spawn moved it twice: the sender's ticket, then the receiver's publish.
func TestSymmetricWordsOwnTheirLines(t *testing.T) {
	lineEnd := func(a shmem.Addr) shmem.Addr { return (a + shmem.LineSize - 1) &^ (shmem.LineSize - 1) }
	for _, kind := range []shmem.TransportKind{shmem.TransportLocal, shmem.TransportShm, shmem.TransportTCP, shmem.TransportSim} {
		t.Run(kind.String(), func(t *testing.T) {
			if kind == shmem.TransportShm && !shmem.ShmSupported() {
				t.Skip("shm transport unsupported on this platform")
			}
			runWorld(t, 2, kind, func(c *shmem.Ctx) error {
				heap, err := c.OwnBytes(0, shmem.LineSize)
				if err != nil {
					return err
				}
				if base := uintptr(unsafe.Pointer(&heap[0])); base%shmem.LineSize != 0 {
					return fmt.Errorf("rank %d: heap base %#x is not on a cache line", c.Rank(), base)
				}
				reg := NewRegistry()
				reg.MustRegister("noop", func(*TaskCtx, []byte) error { return nil })
				p, err := New(c, reg, Config{Seed: 1})
				if err != nil {
					return err
				}
				after, err := c.Alloc(shmem.WordSize) // the allocation after the pool's last
				if err != nil {
					return err
				}
				m := p.mbox
				comp := p.coreQ.CompletionSlotAddr(0, 0)
				compBytes := core.MaxEpochs * wsq.MaxPlanLen * shmem.WordSize
				// Each region with the start of the allocation after it. The
				// queue's slots follow the completion array at or past its end.
				for _, r := range []struct {
					name       string
					addr, next shmem.Addr
					bytes      int
				}{
					{"reserved line", 0, p.coreQ.StealvalAddr(), shmem.LineSize},
					{"stealval", p.coreQ.StealvalAddr(), comp, shmem.WordSize},
					{"completion array", comp, comp + shmem.Addr(compBytes), compBytes},
					{"inbox write cursor", m.writeAddr, m.signalAddr, shmem.WordSize},
					{"inbox signals", m.signalAddr, m.dataAddr, int(m.slots) * shmem.WordSize},
					{"inbox credit word", m.creditAddr, after, shmem.WordSize},
				} {
					if r.addr%shmem.LineSize != 0 || r.next < lineEnd(r.addr+shmem.Addr(r.bytes)) {
						return fmt.Errorf("rank %d: %s (%d bytes at %#x, next allocation at %#x) shares a cache line",
							c.Rank(), r.name, r.bytes, uint64(r.addr), uint64(r.next))
					}
				}
				return nil
			})
		})
	}
}
