// Package conformance is the transport-agnostic protocol conformance
// suite: the paper's correctness invariants, written as checkable oracles
// against the public core/pool APIs, runnable unchanged on the local, tcp,
// and sim transports.
//
// The oracles:
//
//   - StealCommBounds — a successful steal is at most 3 one-sided
//     communications, at most 2 blocking (fetch-add + get + NBI store);
//     an empty steal is at most 1 (§4.1, Table 1).
//   - StealvalConsistency — every stealval a thief observes decodes into
//     mutually consistent fields: valid epochs in range, itasks and tail
//     within the queue geometry (§4, Figures 3–4).
//   - ExactlyOnce — under full pool churn, every spawned task executes
//     exactly once.
//   - EpochSafeAcquire — the owner's acquire proceeds without polling
//     while a steal is still in flight against the previous epoch (§4.2).
//   - AstealsBounded — with damping, thieves hammering an exhausted queue
//     leave asteals bounded by plan + threshold + #thieves (§4.3).
//   - TerminationQuiescence — the pool terminates only after global
//     quiescence: all queues empty, every spawned task executed.
//   - InboxExactlyOnce — four senders flooding one receiver's two-slot
//     remote-spawn inbox neither lose a task nor deliver one twice.
//   - ExactlyOnceOverflow — spawns past a full split queue wait in the
//     owner's private deque and still execute exactly once.
//   - ExactlyOncePerJob — a warm fleet serving back-to-back and
//     interleaved jobs keeps epochs exclusive: per-job audit slots show
//     exactly one execution each, no task leaks into another job's
//     termination wave, and transports attach only once.
//
// All cross-PE synchronization inside the oracles goes through shmem
// primitives (flag words + WaitUntil64 + Relax), never Go channels, so
// each test means the same thing on a real transport and under the sim
// scheduler.
package conformance

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Factory builds a world on one transport. Fault may be nil.
type Factory struct {
	Name string
	New  func(numPEs int, fault shmem.FaultInjector) (*shmem.World, error)
	// NewKilled builds a world that crash-injects victim partway through
	// the run, at a seed-derived point: a wall-clock timer calling
	// World.Kill for real transports, a virtual-time kill schedule for the
	// sim. Factories that cannot schedule kills leave it nil and the kill
	// oracle skips them.
	NewKilled func(numPEs, victim int, seed int64) (*shmem.World, error)
	// Lockstep marks a transport that runs each PE as one goroutine in
	// lockstep (the sim): its pools cannot have executors, so the
	// pool-driven oracles stay at one worker there.
	Lockstep bool
	// Workers pins the worker count of the pool-driven oracles; RunAll
	// sets it for the oracles it sweeps. Zero defers to SWS_TEST_WORKERS.
	Workers int
}

// waitTimeout bounds every flag wait in the suite. Under the sim
// transport it is virtual time.
const waitTimeout = 30 * time.Second

// envWorkers returns SWS_TEST_WORKERS (the CI matrix pins one worker
// count per leg with it), or 0 when it is unset or malformed.
func envWorkers() int {
	if n, err := strconv.Atoi(os.Getenv("SWS_TEST_WORKERS")); err == nil && n >= 1 {
		return n
	}
	return 0
}

// workers returns the Workers count the pool-driven oracles run at on
// this factory: the pinned count, else SWS_TEST_WORKERS, else 1. The
// oracles themselves are worker-count agnostic, so they must hold
// unchanged at any setting.
func (f Factory) workers() int {
	if f.Lockstep {
		return 1
	}
	if f.Workers > 0 {
		return f.Workers
	}
	if n := envWorkers(); n > 0 {
		return n
	}
	return 1
}

// workerSweep returns f pinned to each worker count the exactly-once
// oracles cover by default — the owner alone, and the owner plus one
// executor: the same scheduler loop with and without an execution layer
// beside it. SWS_TEST_WORKERS, when set, narrows the sweep to that value.
func (f Factory) workerSweep() []Factory {
	counts := []int{1, 2}
	if f.Lockstep {
		counts = []int{1}
	} else if n := envWorkers(); n > 0 {
		counts = []int{n}
	}
	fs := make([]Factory, len(counts))
	for i, n := range counts {
		fs[i] = f
		fs[i].Workers = n
	}
	return fs
}

// RunAll runs the whole suite against one transport factory.
func RunAll(t *testing.T, f Factory) {
	t.Run("steal-comm-bounds", func(t *testing.T) { StealCommBounds(t, f) })
	t.Run("stealval-consistency", func(t *testing.T) { StealvalConsistency(t, f) })
	for _, fw := range f.workerSweep() {
		fw := fw
		t.Run(fmt.Sprintf("workers=%d", fw.Workers), func(t *testing.T) {
			t.Run("exactly-once", func(t *testing.T) { ExactlyOnce(t, fw) })
			t.Run("exactly-once-churn", func(t *testing.T) { ExactlyOnceUnderChurn(t, fw, 23) })
			t.Run("inbox-exactly-once", func(t *testing.T) { InboxExactlyOnce(t, fw) })
			t.Run("exactly-once-overflow", func(t *testing.T) { ExactlyOnceOverflow(t, fw) })
		})
	}
	t.Run("epoch-safe-acquire", func(t *testing.T) { EpochSafeAcquire(t, f) })
	t.Run("asteals-bounded", func(t *testing.T) { AstealsBounded(t, f) })
	t.Run("termination-quiescence", func(t *testing.T) { TerminationQuiescence(t, f) })
	t.Run("exactly-once-per-job", func(t *testing.T) { ExactlyOncePerJob(t, f) })
}

// ExactlyOnceUnderKill crash-injects one non-auditor PE at a seed-derived
// point mid-run and checks the failure model's guarantees: the survivors
// terminate (no hang), no task executes twice, and any lost task is
// acknowledged by a degraded-mode report rather than silently dropped.
// Each task marks its own audit slot on rank 0 with a blocking fetch-add,
// so after the survivors quiesce, slot > 1 is a double execution and
// slot == 0 a task the dead PE took with it.
func ExactlyOnceUnderKill(t *testing.T, f Factory, seed int64) {
	if f.NewKilled == nil {
		t.Skipf("%s factory cannot schedule kills", f.Name)
	}
	const peCount = 4
	const perPE = 64
	const total = peCount * perPE
	victim := 1 + int(uint64(seed)%uint64(peCount-1)) // rank 0 hosts the audit slots
	w, err := f.NewKilled(peCount, victim, seed)
	if err != nil {
		t.Fatalf("building %s world: %v", f.Name, err)
	}
	runErr := w.Run(func(ctx *shmem.Ctx) error {
		slots := ctx.MustAlloc(total * shmem.WordSize)
		scratch := ctx.MustAlloc(shmem.WordSize)
		reg := pool.NewRegistry()
		h := reg.MustRegister("unit", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			// Stretch the run so the kill lands mid-flight, then mark this
			// task's own slot.
			for i := 0; i < 3; i++ {
				if _, err := tc.Shmem().FetchAdd64(tc.Shmem().Rank(), scratch, 1); err != nil {
					return err
				}
			}
			_, err = tc.Shmem().FetchAdd64(0, slots+shmem.Addr(args[0])*shmem.WordSize, 1)
			return err
		})
		p, err := pool.New(ctx, reg, pool.Config{Protocol: pool.SWS, Seed: seed, Workers: f.workers()})
		if err != nil {
			return err
		}
		for i := 0; i < perPE; i++ {
			if err := p.Add(h, task.Args(uint64(ctx.Rank()*perPE+i))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err // the victim unwinds with ErrPEKilled, which Run tolerates
		}
		if ctx.Rank() != 0 {
			return nil
		}
		// Rank 0's Run returning means the live membership quiesced: every
		// surviving execution's blocking fetch-add has landed, so the audit
		// reads stable memory. (Rank 0 is also the degraded-mode leader, so
		// its own Stats carry the world's verdict.)
		st := p.Stats()
		var zero, multi int
		for i := 0; i < total; i++ {
			v, err := ctx.Load64(0, slots+shmem.Addr(i)*shmem.WordSize)
			if err != nil {
				return err
			}
			switch {
			case v == 0:
				zero++
			case v > 1:
				multi++
			}
		}
		if multi > 0 {
			return fmt.Errorf("at-most-once violated: %d of %d tasks executed more than once", multi, total)
		}
		if zero > 0 && !st.Degraded {
			return fmt.Errorf("%d tasks lost without a degraded-mode report", zero)
		}
		return nil
	})
	if runErr != nil && !errors.Is(runErr, shmem.ErrPEKilled) {
		t.Fatalf("%s seed %d (victim %d): %v\nrepro: go test ./internal/sim/conformance -run 'TestKillConformance/%s' -kill.seed=%d",
			f.Name, seed, victim, runErr, f.Name, seed)
	}
}

func run(t *testing.T, f Factory, numPEs int, body func(*shmem.Ctx) error) {
	t.Helper()
	w, err := f.New(numPEs, nil)
	if err != nil {
		t.Fatalf("building %s world: %v", f.Name, err)
	}
	if err := w.Run(body); err != nil {
		t.Fatalf("%s world: %v", f.Name, err)
	}
}

// dummyTask returns a descriptor with a payload tag, for queue-level tests
// that never execute tasks.
func dummyTask(i int) task.Desc {
	return task.Desc{Handle: 1, Payload: task.Args(uint64(i))}
}

// StealCommBounds asserts the paper's headline counts (Table 1): a
// successful SWS steal issues at most 3 one-sided communications of which
// at most 2 block; an unsuccessful (empty) steal issues at most 1.
func StealCommBounds(t *testing.T, f Factory) {
	run(t, f, 2, func(ctx *shmem.Ctx) error {
		// Damping off: the comm-count contract under test is the plain
		// fetch-add path.
		opts := core.Options{Epochs: true}
		q, err := core.NewQueue(ctx, opts)
		if err != nil {
			return err
		}
		ready := ctx.MustAlloc(shmem.WordSize)
		done := ctx.MustAlloc(shmem.WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		const pushed = 8
		if ctx.Rank() == 0 {
			for i := 0; i < pushed; i++ {
				if err := q.Push(dummyTask(i)); err != nil {
					return err
				}
			}
			shared, err := q.Release()
			if err != nil {
				return err
			}
			if shared == 0 {
				return fmt.Errorf("release shared nothing")
			}
			// Flag lands in the thief's heap: WaitUntil64 watches local memory.
			if err := ctx.Store64(1, ready, uint64(shared)); err != nil {
				return err
			}
			if _, err := ctx.WaitUntil64(done, shmem.CmpEQ, 1, waitTimeout); err != nil {
				return err
			}
			return ctx.Barrier()
		}
		// Thief.
		shared, err := ctx.WaitUntil64(ready, shmem.CmpNE, 0, waitTimeout)
		if err != nil {
			return err
		}
		stolen := 0
		for attempt := 0; attempt < 32; attempt++ {
			before := ctx.Counters().Snapshot()
			tasks, outcome, err := q.Steal(0)
			if err != nil {
				return err
			}
			d := ctx.Counters().Snapshot().Sub(before)
			switch outcome {
			case wsq.Stolen:
				if d.Total() > 3 {
					return fmt.Errorf("successful steal used %d communications, paper bound is 3 (%v)", d.Total(), d)
				}
				if d.Blocking() > 2 {
					return fmt.Errorf("successful steal used %d blocking communications, paper bound is 2 (%v)", d.Blocking(), d)
				}
				if d.Of(shmem.OpFetchAdd) != 1 {
					return fmt.Errorf("successful steal issued %d fetch-adds, want exactly 1", d.Of(shmem.OpFetchAdd))
				}
				if d.Of(shmem.OpStoreNBI) != 1 {
					return fmt.Errorf("successful steal issued %d completion stores, want exactly 1", d.Of(shmem.OpStoreNBI))
				}
				stolen += len(tasks)
			case wsq.Empty, wsq.Disabled:
				if d.Total() > 1 {
					return fmt.Errorf("empty steal used %d communications, paper bound is 1 (%v)", d.Total(), d)
				}
			}
			if outcome != wsq.Stolen && stolen > 0 {
				break // block exhausted
			}
		}
		if stolen == 0 {
			return fmt.Errorf("thief stole nothing from a %d-task share", shared)
		}
		if uint64(stolen) > shared {
			return fmt.Errorf("thief stole %d tasks from a %d-task share", stolen, shared)
		}
		if err := ctx.Store64(0, done, 1); err != nil {
			return err
		}
		return ctx.Barrier()
	})
}

// StealvalConsistency decodes every stealval observed while the owner
// churns (push/pop/release/acquire) and checks field consistency: a valid
// word has an epoch in [0, MaxEpochs), itasks within the queue capacity,
// and a tail index inside the ring.
func StealvalConsistency(t *testing.T, f Factory) {
	const capacity = 256
	run(t, f, 2, func(ctx *shmem.Ctx) error {
		q, err := core.NewQueue(ctx, core.Options{Epochs: true, Capacity: capacity})
		if err != nil {
			return err
		}
		stop := ctx.MustAlloc(shmem.WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// Owner churn: repeatedly build up, share, drain, localize.
			n := 0
			for round := 0; round < 40; round++ {
				for i := 0; i < 6; i++ {
					if err := q.Push(dummyTask(n)); err != nil {
						return err
					}
					n++
				}
				if _, err := q.Release(); err != nil {
					return err
				}
				for {
					_, ok, err := q.Pop()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
				}
				if _, err := q.Acquire(); err != nil {
					return err
				}
				ctx.Relax()
			}
			if err := ctx.Store64(0, stop, 1); err != nil {
				return err
			}
			return ctx.Barrier()
		}
		// Thief: interleave read-only probes of the packed word with real
		// steals, checking every decoded view.
		format := q.Format()
		checks := 0
		for {
			v, err := ctx.Load64(0, q.StealvalAddr())
			if err != nil {
				return err
			}
			sv := format.Unpack(v)
			if sv.Valid {
				if sv.Epoch < 0 || sv.Epoch >= core.MaxEpochs {
					return fmt.Errorf("valid stealval %#x decodes epoch %d outside [0, %d)", v, sv.Epoch, core.MaxEpochs)
				}
				if sv.ITasks < 0 || sv.ITasks > capacity {
					return fmt.Errorf("stealval %#x advertises itasks %d beyond capacity %d", v, sv.ITasks, capacity)
				}
				if sv.Tail < 0 || sv.Tail >= capacity {
					return fmt.Errorf("stealval %#x advertises tail %d outside ring [0, %d)", v, sv.Tail, capacity)
				}
			}
			if _, _, err := q.Steal(0); err != nil {
				return err
			}
			checks++
			s, err := ctx.Load64(0, stop)
			if err != nil {
				return err
			}
			if s == 1 && checks >= 50 {
				break
			}
			ctx.Relax()
		}
		return ctx.Barrier()
	})
}

// ExactlyOnce runs a full pool workload — a splitting task tree — and
// counts executions through one-sided atomics into rank 0's heap: the
// total must equal the tree size exactly (no lost tasks, no double
// execution).
func ExactlyOnce(t *testing.T, f Factory) {
	const depth = 5 // 2^(depth+1)-1 = 63 tasks
	const wantTasks = 1<<(depth+1) - 1
	run(t, f, 4, func(ctx *shmem.Ctx) error {
		reg := pool.NewRegistry()
		var h task.Handle
		execAddr := ctx.MustAlloc(shmem.WordSize)
		h = reg.MustRegister("split", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			// Every node counts itself at rank 0 with one blocking
			// fetch-add: double execution or loss shifts the total.
			if _, err := tc.Shmem().FetchAdd64(0, execAddr, 1); err != nil {
				return err
			}
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := pool.New(ctx, reg, pool.Config{Protocol: pool.SWS, Seed: 7, Workers: f.workers()})
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			if err := p.Add(h, task.Args(depth)); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			got, err := ctx.Load64(0, execAddr)
			if err != nil {
				return err
			}
			if got != wantTasks {
				return fmt.Errorf("exactly-once violated: %d executions of %d spawned tasks", got, wantTasks)
			}
		}
		return ctx.Barrier()
	})
}

// EpochSafeAcquire scripts §4.2's scenario directly against the queue:
// a thief claims a block and stalls before completing; the owner drains
// its local portion and acquires. With completion epochs the acquire must
// proceed immediately — zero reset polls — because the in-flight claim
// drains against the *previous* epoch's completion array.
func EpochSafeAcquire(t *testing.T, f Factory) {
	run(t, f, 2, func(ctx *shmem.Ctx) error {
		q, err := core.NewQueue(ctx, core.Options{Epochs: true})
		if err != nil {
			return err
		}
		released := ctx.MustAlloc(shmem.WordSize) // owner -> thief: block shared
		claimed := ctx.MustAlloc(shmem.WordSize)  // thief -> owner: claim made
		acquired := ctx.MustAlloc(shmem.WordSize) // owner -> thief: acquire done
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i := 0; i < 8; i++ {
				if err := q.Push(dummyTask(i)); err != nil {
					return err
				}
			}
			shared, err := q.Release()
			if err != nil {
				return err
			}
			if shared == 0 {
				return fmt.Errorf("release shared nothing")
			}
			if err := ctx.Store64(1, released, 1); err != nil {
				return err
			}
			// Wait for the thief's in-flight claim (fetch-add done, no
			// completion store yet).
			if _, err := ctx.WaitUntil64(claimed, shmem.CmpEQ, 1, waitTimeout); err != nil {
				return err
			}
			// Drain the local portion so Acquire has something to do.
			for {
				_, ok, err := q.Pop()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			epochBefore := q.Epoch()
			moved, err := q.Acquire()
			if err != nil {
				return err
			}
			st := q.Stats()
			if st.ResetPolls != 0 {
				return fmt.Errorf("acquire polled %d times while a steal was in flight — epochs must make it wait-free (§4.2)", st.ResetPolls)
			}
			if q.Epoch() == epochBefore {
				return fmt.Errorf("acquire did not open a fresh epoch")
			}
			if moved == 0 {
				return fmt.Errorf("acquire localized nothing despite unclaimed shared tasks")
			}
			// Signal into the thief's heap, where its WaitUntil64 watches.
			if err := ctx.Store64(1, acquired, 1); err != nil {
				return err
			}
			// The thief's late completion store must still drain the old
			// epoch: poll Progress until only the current record remains.
			for q.Stats().Epochs > 1 {
				if err := q.Progress(); err != nil {
					return err
				}
				if werr := ctx.Err(); werr != nil {
					return werr
				}
				ctx.Relax()
			}
			return ctx.Barrier()
		}
		// Thief: claim manually so the completion store can be withheld
		// while the owner acquires — the exact §4.2 window. Wait for the
		// release first: a claim racing it fetches a closed stealval.
		if _, err := ctx.WaitUntil64(released, shmem.CmpEQ, 1, waitTimeout); err != nil {
			return err
		}
		old, err := ctx.FetchAdd64(0, q.StealvalAddr(), core.AstealsUnit)
		if err != nil {
			return err
		}
		v := q.Format().Unpack(old)
		if !v.Valid {
			return fmt.Errorf("thief fetched invalid stealval %#x", old)
		}
		if v.Asteals != 0 {
			return fmt.Errorf("thief expected first claim, got asteals=%d", v.Asteals)
		}
		k := wsq.StealHalf(v.ITasks, int(v.Asteals))
		if err := ctx.Store64(0, claimed, 1); err != nil {
			return err
		}
		if _, err := ctx.WaitUntil64(acquired, shmem.CmpEQ, 1, waitTimeout); err != nil {
			return err
		}
		// Late completion: addressed by the epoch *in the fetched value*,
		// not the owner's (already advanced) current epoch.
		if err := ctx.Store64NBI(0, q.CompletionSlotAddr(v.Epoch, int(v.Asteals)), uint64(k)); err != nil {
			return err
		}
		if err := ctx.Quiet(); err != nil {
			return err
		}
		return ctx.Barrier()
	})
}

// AstealsBounded has two thieves hammer an exhausted queue with damping
// enabled: empty-mode probes are read-only, so the asteals counter must
// stay bounded by plan + DampThreshold + #thieves (§4.3).
func AstealsBounded(t *testing.T, f Factory) {
	const thieves = 2
	const threshold = core.DampThreshold
	run(t, f, thieves+1, func(ctx *shmem.Ctx) error {
		q, err := core.NewQueue(ctx, core.Options{Epochs: true, Damping: true})
		if err != nil {
			return err
		}
		doneCnt := ctx.MustAlloc(shmem.WordSize)
		ready := ctx.MustAlloc(shmem.WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i := 0; i < 8; i++ {
				if err := q.Push(dummyTask(i)); err != nil {
					return err
				}
			}
			shared, err := q.Release()
			if err != nil {
				return err
			}
			// Start flags land in each thief's heap (WaitUntil64 is local).
			for r := 1; r <= thieves; r++ {
				if err := ctx.Store64(r, ready, 1); err != nil {
					return err
				}
			}
			if _, err := ctx.WaitUntil64(doneCnt, shmem.CmpEQ, thieves, waitTimeout); err != nil {
				return err
			}
			w, err := ctx.Load64(0, q.StealvalAddr())
			if err != nil {
				return err
			}
			v := q.Format().Unpack(w)
			plan := wsq.PlanLen(shared)
			bound := uint32(plan + threshold + thieves)
			if v.Asteals > bound {
				return fmt.Errorf("asteals %d exceeds damping bound %d (plan %d + threshold %d + %d thieves)",
					v.Asteals, bound, plan, threshold, thieves)
			}
			return ctx.Barrier()
		}
		// Thieves: hammer well past the point damping must kick in.
		if _, err := ctx.WaitUntil64(ready, shmem.CmpEQ, 1, waitTimeout); err != nil {
			return err
		}
		for i := 0; i < 60; i++ {
			if _, _, err := q.Steal(0); err != nil {
				return err
			}
			ctx.Relax()
		}
		if !q.EmptyMode(0) {
			return fmt.Errorf("thief %d never entered empty-mode after 60 steals of an exhausted queue", ctx.Rank())
		}
		// In empty-mode a further attempt is a single read-only probe.
		before := ctx.Counters().Snapshot()
		if _, _, err := q.Steal(0); err != nil {
			return err
		}
		d := ctx.Counters().Snapshot().Sub(before)
		if d.Of(shmem.OpFetchAdd) != 0 {
			return fmt.Errorf("empty-mode steal still issued a fetch-add (damping must probe read-only)")
		}
		if d.Total() > 1 {
			return fmt.Errorf("empty-mode steal used %d communications, want at most 1 probe", d.Total())
		}
		if _, err := ctx.FetchAdd64(0, doneCnt, 1); err != nil {
			return err
		}
		return ctx.Barrier()
	})
}

// TerminationQuiescence runs a pool workload and checks that when Run
// returns (the detector declared global termination) every queue is
// empty and the executed-task total equals the spawned total: termination
// only after global quiescence.
func TerminationQuiescence(t *testing.T, f Factory) {
	const depth = 4 // 2^(depth+1)-1 = 31 tasks
	run(t, f, 4, func(ctx *shmem.Ctx) error {
		spawned := ctx.MustAlloc(shmem.WordSize)
		executed := ctx.MustAlloc(shmem.WordSize)
		reg := pool.NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if _, err := tc.Shmem().FetchAdd64(0, executed, 1); err != nil {
				return err
			}
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 2; i++ {
				if _, err := tc.Shmem().FetchAdd64(0, spawned, 1); err != nil {
					return err
				}
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := pool.New(ctx, reg, pool.Config{Protocol: pool.SWS, Seed: 11, Workers: f.workers()})
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			if _, err := ctx.FetchAdd64(0, spawned, 1); err != nil {
				return err
			}
			if err := p.Add(h, task.Args(depth)); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		// Run returned: termination was declared. The local queue must be
		// quiescent on every PE.
		if n := p.Queue().LocalCount(); n != 0 {
			return fmt.Errorf("PE %d terminated with %d local tasks", ctx.Rank(), n)
		}
		if n := p.Queue().SharedAvail(); n != 0 {
			return fmt.Errorf("PE %d terminated with %d unclaimed shared tasks", ctx.Rank(), n)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			s, err := ctx.Load64(0, spawned)
			if err != nil {
				return err
			}
			e, err := ctx.Load64(0, executed)
			if err != nil {
				return err
			}
			if s != e {
				return fmt.Errorf("terminated before quiescence: %d spawned, %d executed", s, e)
			}
			if e != 1<<(depth+1)-1 {
				return fmt.Errorf("executed %d tasks, want %d", e, 1<<(depth+1)-1)
			}
		}
		return ctx.Barrier()
	})
}
