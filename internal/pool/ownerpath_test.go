package pool

import (
	"errors"
	"fmt"
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
// reads the clock and cedes the processor once in obs.SampleEvery tasks.

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
			if got, err := recv.mbox.drain(recv.push); err != nil || got != 1 {
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

// TestBusyOwnerNeverSleeps: the owner yields after a task but never enters
// the poll back-off (every 64th step of which sleeps), so its back-off
// steps are bounded by its idle iterations — with executors beside it too:
// it is a worker among them, not a feeder that must keep out of their way.
func TestBusyOwnerNeverSleeps(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, st, _, pauses, _ := runTree(t, 14, Config{Workers: workers}, nil)
		if pauses > st.IdleIters {
			t.Errorf("Workers=%d: %d back-off steps over %d tasks with %d idle iterations",
				workers, pauses, st.TasksExecuted, st.IdleIters)
		}
	}
}

// TestBriefWaitNeverBacksOff: a wait's first relaxAfter polls in a row only
// yield; the poll back-off, every 64th step of which sleeps, starts after
// them.
func TestBriefWaitNeverBacksOff(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		pauses0, yields0 := c.Pauses(), c.Yields()
		for n := 0; n < relaxAfter; n++ {
			backoff(c, n)
		}
		if p, y := c.Pauses()-pauses0, c.Yields()-yields0; p != 0 || y != relaxAfter {
			t.Errorf("%d polls of a young wait: %d back-off steps, %d yields; want 0, %d", relaxAfter, p, y, relaxAfter)
		}
		backoff(c, relaxAfter)
		if p := c.Pauses() - pauses0; p != 1 {
			t.Errorf("poll %d of a wait: %d back-off steps, want 1", relaxAfter, p)
		}
		return nil
	})
}

// TestBusyOwnerYieldCadence: the scheduler yield takes the Go scheduler's
// process-wide lock, so a busy worker makes one on the exec-sample beat,
// not one per task — and does make them: on a shared core the beat is when
// a thief gets to run (uts.TestBusyPEsShareOneCore).
func TestBusyOwnerYieldCadence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, st, _, _, yields := runTree(t, 14, Config{Workers: workers}, nil)
		if budget := st.TasksExecuted/obs.SampleEvery + st.IdleIters + uint64(workers); yields == 0 || yields > budget {
			t.Errorf("Workers=%d: %d scheduler yields over %d tasks with %d idle iterations, want 1..%d",
				workers, yields, st.TasksExecuted, st.IdleIters, budget)
		}
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

// watchedQueue reports every call into the protocol queue it wraps.
type watchedQueue struct {
	wsq.Queue
	touch func(op string)
}

func (q *watchedQueue) Push(d task.Desc) error { q.touch("Push"); return q.Queue.Push(d) }
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

// TestExecTimeSampled: the exec clock times one body in obs.SampleEvery
// and Stats scales the sum up, so ExecTime still estimates the time spent
// in task bodies; with a trace buffer attached every task is timed and has
// its TaskExec event.
func TestExecTimeSampled(t *testing.T) {
	const tasks, spin = 16 * obs.SampleEvery, 10 * time.Microsecond
	run := func(tr *trace.Set) (st stats.PE, sampled uint64) {
		runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
			reg := NewRegistry()
			var left atomic.Int64
			var h task.Handle
			h = reg.MustRegister("spin", func(tc *TaskCtx, _ []byte) error {
				for t0 := time.Now(); time.Since(t0) < spin; {
				}
				if left.Add(-1) > 0 {
					return tc.Spawn(h, nil)
				}
				return nil
			})
			p, err := New(c, reg, Config{Trace: tr})
			if err != nil {
				return err
			}
			left.Store(tasks)
			if err := p.Add(h, nil); err != nil {
				return err
			}
			if err := p.Run(); err != nil {
				return err
			}
			st, sampled = p.Stats(), p.exec.workers[0].execSampled
			return nil
		})
		return st, sampled
	}

	// A sampled estimate is exact only in expectation: one descheduled
	// sample is scaled up 64-fold, and on a box running the other packages'
	// tests beside this one a 4 ms timeslice lands inside one of the timed
	// bodies in a good share of attempts. Attempts are short (10 ms of
	// spinning) and stop at the first clean one.
	want := tasks * spin
	var got time.Duration
	for attempt := 0; attempt < 20; attempt++ {
		st, sampled := run(nil)
		if st.TasksExecuted != tasks || sampled != tasks/obs.SampleEvery {
			t.Fatalf("executed %d tasks and timed %d, want %d and %d", st.TasksExecuted, sampled, tasks, tasks/obs.SampleEvery)
		}
		if got = st.ExecTime; got >= want && got <= want+want/4 {
			break
		}
	}
	if got < want || got > want+want/4 {
		t.Errorf("ExecTime = %v for %d tasks spinning %v each, want within 25%% above %v", got, tasks, spin, want)
	}

	tr, err := trace.NewSet(1, 2*tasks)
	if err != nil {
		t.Fatal(err)
	}
	st, sampled := run(tr)
	if n := tr.CountByKind()[trace.TaskExec]; sampled != tasks || n != tasks {
		t.Errorf("traced run timed %d of %d tasks and recorded %d TaskExec events", sampled, st.TasksExecuted, n)
	}
}

// TestPerTaskWordsOwnTheirCacheLines pins the padding of the small heap
// objects a worker writes (execLayer: reads) on every task. Go packs
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
}

// TestSymmetricWordsOwnTheirLines is the same rule in the symmetric heap:
// the words a peer reaches on the task path — the stealval and completion
// array a thief fetch-adds and stores, the detector's words a leader reads,
// the inbox write cursor a sender fetch-adds, the signals it puts and the
// credit word it fetches — each start on a cache line, and the allocation
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
				det, detBytes := p.det.Region()
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
					{"stealval", p.coreQ.StealvalAddr(), comp, shmem.WordSize},
					{"completion array", comp, comp + shmem.Addr(compBytes), compBytes},
					{"detector words", det, m.writeAddr, detBytes},
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
