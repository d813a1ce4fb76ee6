package pool

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
)

// testWorkerCounts returns the Workers values the multi-worker tests run
// at. SWS_TEST_WORKERS pins a single value (the CI matrix); otherwise the
// default sweep covers single, dual, and quad.
func testWorkerCounts(t *testing.T) []int {
	t.Helper()
	if s := os.Getenv("SWS_TEST_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SWS_TEST_WORKERS=%q: want a positive integer", s)
		}
		return []int{n}
	}
	return []int{1, 2, 4}
}

// TestMultiWorkerExactlyOnce runs a binary task tree over multi-worker
// PEs and checks every node executed exactly once — the invariant that
// the private deques, the intra-PE ring, and the aggregated termination
// accounting jointly guarantee. Runs under -race in CI.
func TestMultiWorkerExactlyOnce(t *testing.T) {
	const depth = 10 // 2^11 - 1 nodes
	nodes := 1<<(depth+1) - 1
	for _, workers := range testWorkerCounts(t) {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seen := make([]atomic.Uint32, nodes)
			runWorld(t, 4, shmem.TransportLocal, func(c *shmem.Ctx) error {
				reg := NewRegistry()
				var h task.Handle
				h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
					args, err := task.ParseArgs(payload, 1)
					if err != nil {
						return err
					}
					id := args[0]
					if n := seen[id].Add(1); n != 1 {
						return fmt.Errorf("node %d executed %d times", id, n)
					}
					for _, kid := range []uint64{2*id + 1, 2*id + 2} {
						if kid >= uint64(nodes) {
							continue
						}
						if err := tc.Spawn(h, task.Args(kid)); err != nil {
							return err
						}
					}
					return nil
				})
				p, err := New(c, reg, Config{Seed: 3, Workers: workers})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := p.Add(h, task.Args(0)); err != nil {
						return err
					}
				}
				return p.Run()
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("node %d executed %d times, want 1", i, got)
				}
			}
		})
	}
}

// TestMultiWorkerRemoteSpawn drives the worker SpawnOn path: every
// non-leaf node forwards one child to the next rank's inbox, so staged
// outbox sends, inbox drains, and the publish-before-send ordering all
// see traffic.
func TestMultiWorkerRemoteSpawn(t *testing.T) {
	const depth = 8
	nodes := 1<<(depth+1) - 1
	for _, workers := range testWorkerCounts(t) {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seen := make([]atomic.Uint32, nodes)
			runWorld(t, 4, shmem.TransportLocal, func(c *shmem.Ctx) error {
				reg := NewRegistry()
				var h task.Handle
				h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
					args, err := task.ParseArgs(payload, 1)
					if err != nil {
						return err
					}
					id := args[0]
					if n := seen[id].Add(1); n != 1 {
						return fmt.Errorf("node %d executed %d times", id, n)
					}
					left, right := 2*id+1, 2*id+2
					if left < uint64(nodes) {
						if err := tc.Spawn(h, task.Args(left)); err != nil {
							return err
						}
					}
					if right < uint64(nodes) {
						next := (tc.Rank() + 1) % tc.NumPEs()
						if err := tc.SpawnOn(next, h, task.Args(right)); err != nil {
							return err
						}
					}
					return nil
				})
				p, err := New(c, reg, Config{Seed: 5, Workers: workers})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := p.Add(h, task.Args(0)); err != nil {
						return err
					}
				}
				return p.Run()
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("node %d executed %d times, want 1", i, got)
				}
			}
		})
	}
}

// TestMultiWorkerSimRejected: the deterministic simulation transport runs
// PEs in single-goroutine lockstep, so multi-worker pools must be refused
// at construction rather than deadlocking the virtual clock.
func TestMultiWorkerSimRejected(t *testing.T) {
	runWorld(t, 2, shmem.TransportSim, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		reg.MustRegister("nop", func(tc *TaskCtx, payload []byte) error { return nil })
		if _, err := New(c, reg, Config{Workers: 2}); err == nil {
			return fmt.Errorf("New accepted Workers=2 under the sim transport")
		}
		if !c.Lockstep() {
			return fmt.Errorf("sim ctx does not report lockstep")
		}
		return nil
	})
}

// TestMultiWorkerStats checks the per-worker breakdown: one row per
// worker, rows summing to the PE totals, and the idle-iteration counter
// surfacing in the merged stats.
func TestMultiWorkerStats(t *testing.T) {
	const workers = 4
	const tasks = 500
	var ran atomic.Uint64
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("tick", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		p, err := New(c, reg, Config{Seed: 1, Workers: workers})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < tasks; i++ {
				if err := p.Add(h, nil); err != nil {
					return err
				}
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		st := p.Stats()
		if len(st.Workers) != workers {
			return fmt.Errorf("rank %d: %d worker rows, want %d", c.Rank(), len(st.Workers), workers)
		}
		var sumExec, sumSpawn uint64
		for i, w := range st.Workers {
			if w.PE != c.Rank() || w.ID != i {
				return fmt.Errorf("worker row %d mislabeled: PE=%d ID=%d", i, w.PE, w.ID)
			}
			sumExec += w.TasksExecuted
			sumSpawn += w.TasksSpawned
		}
		if sumExec != st.TasksExecuted {
			return fmt.Errorf("worker exec sum %d != PE total %d", sumExec, st.TasksExecuted)
		}
		// Seeds are worker 0's spawns: there is no accounting path beside
		// the per-worker counters, so the rows sum to the PE total exactly.
		if sumSpawn != st.TasksSpawned {
			return fmt.Errorf("worker spawn sum %d != PE total %d", sumSpawn, st.TasksSpawned)
		}
		if c.Rank() == 0 && st.Workers[0].TasksSpawned != tasks {
			return fmt.Errorf("owner row counts %d spawns, want the %d seeds", st.Workers[0].TasksSpawned, tasks)
		}
		return nil
	})
	if ran.Load() != tasks {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), tasks)
	}
}

// partitionFrom fails every one-sided operation rank from issues against
// another PE, leaving that rank able to hear the world but not to reach it.
type partitionFrom int

func (r partitionFrom) Before(op shmem.Op, from, to int, addr shmem.Addr) shmem.Verdict {
	if from == int(r) && to != from {
		return shmem.Verdict{Err: shmem.ErrPartitioned}
	}
	return shmem.Verdict{}
}

// TestDrainRunsInventoryLocally: a draining PE whose every forward is
// refused (no member is reachable) runs its inventory itself. Those
// executions, their children's spawns and the seeds all belong to worker 0,
// so on a PE with an executor the per-worker rows still sum to the PE
// totals and the world's ledger balances.
func TestDrainRunsInventoryLocally(t *testing.T) {
	const roots, kids = 40, 3
	const total = roots * (1 + kids)
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20, Fault: partitionFrom(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Live().BeginDrain(1); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Uint64
	sts := make([]stats.PE, 2) // each PE writes its own element
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		leaf := reg.MustRegister("leaf", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		root := reg.MustRegister("root", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			for i := 0; i < kids; i++ {
				if err := tc.Spawn(leaf, nil); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 9, Workers: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < roots; i++ {
				if err := p.Add(root, nil); err != nil {
					return err
				}
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		sts[c.Rank()] = p.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != total {
		t.Fatalf("ran %d tasks, want %d", got, total)
	}
	var sum stats.PE
	for rank, st := range sts {
		var rowExec, rowSpawn uint64
		for _, wk := range st.Workers {
			rowExec += wk.TasksExecuted
			rowSpawn += wk.TasksSpawned
		}
		if rowExec != st.TasksExecuted || rowSpawn != st.TasksSpawned {
			t.Fatalf("rank %d: worker rows sum to %d executed / %d spawned, PE totals %d / %d",
				rank, rowExec, rowSpawn, st.TasksExecuted, st.TasksSpawned)
		}
		sum.Add(st)
	}
	if sum.TasksSpawned != total || sum.TasksExecuted != total {
		t.Fatalf("ledger: %d spawned, %d executed, want %d of each", sum.TasksSpawned, sum.TasksExecuted, total)
	}
	// Rank 0 may steal some of the inventory before rank 1 notices the
	// drain (steals are rank 0's operations, which the partition lets
	// through); whatever rank 1 still held, it ran, and none was forwarded.
	if sts[1].TasksExecuted == 0 || sts[1].TasksForwarded != 0 || sts[1].MemberDrains != 1 {
		t.Fatalf("rank 1: executed %d, forwarded %d, drains %d; want a completed drain that ran its inventory locally",
			sts[1].TasksExecuted, sts[1].TasksForwarded, sts[1].MemberDrains)
	}
}

// TestDrainForwardsExecutorBacklog: a PE that begins draining while one of
// its executors holds a deep private backlog still forwards its whole
// inventory — the executor stages its deque for the owner, the owner
// publishes the counts that cover it and sends it on — so every task runs
// exactly once and most of the backlog runs on the remaining member. A
// count the detector never sees keeps the run from terminating, so the run
// has a deadline: a ledger bug fails here with the numbers, not as a hang.
func TestDrainForwardsExecutorBacklog(t *testing.T) {
	const gens, leaves = 8, 2000
	const total = 1 + gens*(1+leaves)
	const deadline = 60 * time.Second
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var ran, draining atomic.Uint64
	sts := make([]stats.PE, 2) // each PE writes its own element
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *shmem.Ctx) error {
			reg := NewRegistry()
			leaf := reg.MustRegister("leaf", func(tc *TaskCtx, payload []byte) error {
				ran.Add(1)
				for t0 := time.Now(); time.Since(t0) < 10*time.Microsecond; {
				}
				return nil
			})
			gen := reg.MustRegister("gen", func(tc *TaskCtx, payload []byte) error {
				ran.Add(1)
				for i := 0; i < leaves; i++ {
					if err := tc.Spawn(leaf, nil); err != nil {
						return err
					}
				}
				// The first generator an executor of rank 1 runs starts the
				// drain, with its 2000 leaves in that executor's private deque.
				if tc.Rank() == 1 && tc.Worker() != 0 && draining.CompareAndSwap(0, 1) {
					return w.Live().BeginDrain(1)
				}
				return nil
			})
			root := reg.MustRegister("root", func(tc *TaskCtx, payload []byte) error {
				ran.Add(1)
				for i := 0; i < gens; i++ {
					if err := tc.Spawn(gen, nil); err != nil {
						return err
					}
				}
				return nil
			})
			p, err := New(c, reg, Config{Seed: 11, Workers: 2, QueueCapacity: 1 << 15})
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := p.Add(root, nil); err != nil {
					return err
				}
			}
			if err := p.Run(); err != nil {
				return err
			}
			sts[c.Rank()] = p.Stats()
			return nil
		})
	}()
	select {
	case err = <-done:
	case <-time.After(deadline):
		t.Fatalf("no termination after %v: ran %d of %d tasks, drain started %v (a count that never reached the detector?)",
			deadline, ran.Load(), total, draining.Load() != 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != total {
		t.Fatalf("ran %d tasks, want %d", got, total)
	}
	var sum stats.PE
	for _, st := range sts {
		sum.Add(st)
	}
	if sum.TasksSpawned != total || sum.TasksExecuted != total {
		t.Fatalf("ledger: %d spawned, %d executed, want %d of each", sum.TasksSpawned, sum.TasksExecuted, total)
	}
	if draining.Load() == 0 {
		t.Skip("no executor of rank 1 ran a generator: nothing was checked")
	}
	// The ring holds 16 tasks; a forward count beyond half a generator's
	// leaves can only have come out of the executor's private deque.
	if sts[1].MemberDrains != 1 || sts[1].TasksForwarded < leaves/2 {
		t.Fatalf("rank 1: drains %d, forwarded %d; want 1 drain forwarding at least %d tasks",
			sts[1].MemberDrains, sts[1].TasksForwarded, leaves/2)
	}
}

// TestStrandedTaskFailsJob: a task left in an executor's private deque
// after global termination means the ledger balanced without it. The job
// must fail with ErrStranded rather than report success with work undone.
// The bug is planted: an executor parks an uncounted task and exits.
func TestStrandedTaskFailsJob(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var planted atomic.Bool
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			if len(payload) != 0 { // the root
				for i := 0; i < 8; i++ {
					if err := tc.Spawn(h, nil); err != nil {
						return err
					}
				}
				return nil
			}
			if tc.Worker() != 0 {
				if planted.CompareAndSwap(false, true) {
					tc.p.exec.stop.Store(true)
					return tc.w.dq.push(task.Desc{Handle: h})
				}
				return nil
			}
			// The owner holds its children until the executor has had one.
			for t0 := time.Now(); !planted.Load() && time.Since(t0) < 5*time.Second; {
				runtime.Gosched()
			}
			return nil
		})
		p, err := New(c, reg, Config{Workers: 2})
		if err != nil {
			return err
		}
		if err := p.Add(h, []byte{1}); err != nil {
			return err
		}
		err = p.Run()
		if !planted.Load() {
			return fmt.Errorf("the executor never ran a task: %v", err)
		}
		if !errors.Is(err, ErrStranded) {
			return fmt.Errorf("Run returned %v, want ErrStranded", err)
		}
		return nil
	})
}

// TestPrivDeque checks the executor's private deque: LIFO pop, wrap-around,
// growth preserving order, oldest-first removal, and that a popped payload
// survives a push into the slot it came from (a body encodes its children
// into its own payload buffer — Func's contract).
func TestPrivDeque(t *testing.T) {
	q := newPrivDeque(task.MustNewCodec(24))
	push := func(v uint64) {
		t.Helper()
		if err := q.push(task.Desc{Handle: task.Handle(v), Payload: task.Args(v, v+1, v+2)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(d task.Desc, err error, want uint64) {
		t.Helper()
		if err != nil || d.Handle != task.Handle(want) || !bytes.Equal(d.Payload, task.Args(want, want+1, want+2)) {
			t.Fatalf("got handle %d payload %x (err %v), want task %d", d.Handle, d.Payload, err, want)
		}
	}
	pop := func(want uint64) task.Desc {
		t.Helper()
		d, ok, err := q.pop()
		if !ok {
			t.Fatalf("pop: empty, want task %d", want)
		}
		check(d, err, want)
		return d
	}
	if _, ok, _ := q.pop(); ok {
		t.Fatal("pop from an empty deque succeeded")
	}

	// Wrap-around: drift the window several times round the initial buffer
	// without ever filling it.
	capacity := q.mask + 1
	next, oldest := uint64(0), uint64(0)
	for ; next < 10; next++ {
		push(next)
	}
	for i := 0; i < 3*capacity; i++ {
		d, err := q.takeOldest()
		check(d, err, oldest)
		oldest++
		push(next)
		next++
	}
	if q.mask+1 != capacity {
		t.Fatalf("deque grew to %d slots holding 10 tasks", q.mask+1)
	}

	// Growth from a wrapped position keeps the order at both ends.
	for q.n <= 2*capacity {
		push(next)
		next++
	}
	if q.mask+1 != 4*capacity {
		t.Fatalf("deque has %d slots holding %d tasks, want %d", q.mask+1, q.n, 4*capacity)
	}
	d, err := q.takeOldest()
	check(d, err, oldest)
	oldest++

	// A popped payload is the body's buffer: pushing into the freed slot
	// (and overwriting the buffer's source) leaves it intact.
	d = pop(next - 1)
	push(999)
	check(d, nil, next-1)
	pop(999)
	for v := next - 2; ; v-- {
		pop(v)
		if v == oldest {
			break
		}
	}
	if _, ok, _ := q.pop(); ok || q.n != 0 {
		t.Fatalf("deque not empty after popping everything: n=%d", q.n)
	}
}

// TestMultiWorkerTCP exercises multi-worker PEs over the tcp transport,
// where worker goroutines share per-connection serialized round trips.
func TestMultiWorkerTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp world in -short mode")
	}
	const depth = 8
	nodes := 1<<(depth+1) - 1
	seen := make([]atomic.Uint32, nodes)
	runWorld(t, 2, shmem.TransportTCP, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			id := args[0]
			if n := seen[id].Add(1); n != 1 {
				return fmt.Errorf("node %d executed %d times", id, n)
			}
			for _, kid := range []uint64{2*id + 1, 2*id + 2} {
				if kid < uint64(nodes) {
					if err := tc.Spawn(h, task.Args(kid)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 8, Workers: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(0)); err != nil {
				return err
			}
		}
		return p.Run()
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("node %d executed %d times, want 1", i, got)
		}
	}
}
