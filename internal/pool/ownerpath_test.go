package pool

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sws/internal/obs"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
)

// The task-path guards: counts that are exact on any box, so they gate at
// 0 %. For the owner and for an executor alike, spawning, popping and
// running a task allocates nothing; the owner issues no one-sided op on the
// PE's own heap; and at every worker count a busy PE sleeps never, and
// reads the clock and cedes the processor once in obs.SampleEvery tasks.

// runTree runs a binary tree of the given depth on a 1-PE world (no peers,
// so no steals) and returns the PE's statistics, its self-targeted op
// count, its back-off step count and its scheduler-yield count over the run.
func runTree(t *testing.T, depth uint64, cfg Config) (st stats.PE, local, pauses, yields uint64) {
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
		p, err := New(c, reg, cfg)
		if err != nil {
			return err
		}
		if err := p.Add(h, task.Args(depth)); err != nil {
			return err
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
	return st, local, pauses, yields
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
			if err := p.executeOwned(d); err != nil {
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
		return nil
	})
}

// TestOwnerPathBypassesOpPipeline: the owner's queue, detector and inbox
// words are its own memory, so the self-targeted ops that do go through
// Ctx.do (counted as Local) follow jobs, releases and acquires — not tasks.
func TestOwnerPathBypassesOpPipeline(t *testing.T) {
	for _, depth := range []uint64{8, 14} {
		st, local, _, _ := runTree(t, depth, Config{})
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
		st, _, pauses, _ := runTree(t, 14, Config{Workers: workers})
		if pauses > st.IdleIters {
			t.Errorf("Workers=%d: %d back-off steps over %d tasks with %d idle iterations",
				workers, pauses, st.TasksExecuted, st.IdleIters)
		}
	}
}

// TestBusyOwnerYieldCadence: the scheduler yield takes the Go scheduler's
// process-wide lock, so a busy worker makes one on the exec-sample beat,
// not one per task — and does make them: on a shared core the beat is when
// a thief gets to run (uts.TestBusyPEsShareOneCore).
func TestBusyOwnerYieldCadence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		st, _, _, yields := runTree(t, 14, Config{Workers: workers})
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
	st, _, _, _ := runTree(t, 14, Config{Workers: 2})
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
// objects a worker writes (execLayer: reads) on every task. Go packs same-size objects into
// one span, so unpadded, two PEs' guards (or worker counters) can share a
// cache line — whether they do is decided by goroutine timing at
// construction, which made whole runs of the same binary 20 % apart. A
// 128-byte object is its own size class and 128-aligned; adding a field
// without shrinking the pad would silently undo that.
func TestPerTaskWordsOwnTheirCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(guardedQueue{}); n != 128 {
		t.Errorf("guardedQueue is %d bytes, want 128: adjust its pad", n)
	}
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
