package sdc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

func runWorld(t *testing.T, npes int, body func(*shmem.Ctx) error) {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: npes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func desc(id uint64) task.Desc {
	return task.Desc{Handle: 1, Payload: task.Args(id)}
}

func descID(t *testing.T, d task.Desc) uint64 {
	t.Helper()
	args, err := task.ParseArgs(d.Payload, 1)
	if err != nil {
		t.Fatalf("bad payload: %v", err)
	}
	return args[0]
}

func TestNewQueueValidation(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		if _, err := NewQueue(c, Options{Capacity: 1}); err == nil {
			return fmt.Errorf("capacity 1 accepted")
		}
		if _, err := NewQueue(c, Options{PayloadCap: -2}); err == nil {
			return fmt.Errorf("negative payload accepted")
		}
		return nil
	})
}

func TestPushPopLIFO(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		for i := uint64(0); i < 10; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		for i := 9; i >= 0; i-- {
			d, ok, err := q.Pop()
			if err != nil || !ok {
				return fmt.Errorf("pop: ok=%v err=%v", ok, err)
			}
			if got := descID(t, d); got != uint64(i) {
				return fmt.Errorf("LIFO violated: got %d want %d", got, i)
			}
		}
		if _, ok, _ := q.Pop(); ok {
			return fmt.Errorf("pop from empty succeeded")
		}
		return nil
	})
}

func TestReleaseAcquire(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		for i := uint64(0); i < 12; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if n, err := q.Release(); err != nil || n != 6 {
			return fmt.Errorf("release: n=%d err=%v", n, err)
		}
		if q.LocalCount() != 6 || q.SharedAvail() != 6 {
			return fmt.Errorf("after release: local=%d shared=%d", q.LocalCount(), q.SharedAvail())
		}
		if n, err := q.Release(); err != nil || n != 0 {
			return fmt.Errorf("redundant release: n=%d err=%v", n, err)
		}
		for q.LocalCount() > 0 {
			if _, _, err := q.Pop(); err != nil {
				return err
			}
		}
		if n, err := q.Acquire(); err != nil || n != 3 {
			return fmt.Errorf("acquire: n=%d err=%v", n, err)
		}
		if q.LocalCount() != 3 || q.SharedAvail() != 3 {
			return fmt.Errorf("after acquire: local=%d shared=%d", q.LocalCount(), q.SharedAvail())
		}
		return nil
	})
}

// Figure 2: a successful SDC steal is exactly 6 communications, 5 of them
// blocking.
func TestStealCommunicationCount(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 20; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		before := c.Counters().Snapshot()
		tasks, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		d := c.Counters().Snapshot().Sub(before)
		if out != wsq.Stolen || len(tasks) != 5 {
			return fmt.Errorf("steal: out=%v n=%d", out, len(tasks))
		}
		if d.Total() != 6 {
			return fmt.Errorf("steal used %d comms (%v), want 6", d.Total(), d)
		}
		if d.Blocking() != 5 {
			return fmt.Errorf("steal used %d blocking comms, want 5", d.Blocking())
		}
		if d.Of(shmem.OpCompareSwap) != 1 || d.Of(shmem.OpGet) != 2 ||
			d.Of(shmem.OpPut) != 1 || d.Of(shmem.OpStore) != 1 || d.Of(shmem.OpStoreNBI) != 1 {
			return fmt.Errorf("steal op mix wrong: %v", d)
		}
		return c.Barrier()
	})
}

// An empty steal attempt costs 3 communications (lock, metadata get,
// unlock) — triple SWS's single fetch-add, which is what drives the
// paper's search-time gap.
func TestEmptyStealIsThreeComms(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			before := c.Counters().Snapshot()
			_, out, err := q.Steal(0)
			if err != nil {
				return err
			}
			d := c.Counters().Snapshot().Sub(before)
			if out != wsq.Empty {
				return fmt.Errorf("outcome %v, want empty", out)
			}
			if d.Total() != 3 {
				return fmt.Errorf("empty steal used %d comms (%v), want 3", d.Total(), d)
			}
		}
		return c.Barrier()
	})
}

func TestStealSelfAndRangeErrors(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		if _, _, err := q.Steal(c.Rank()); err == nil {
			return fmt.Errorf("self-steal accepted")
		}
		if _, _, err := q.Steal(-1); err == nil {
			return fmt.Errorf("negative victim accepted")
		}
		return c.Barrier()
	})
}

// Steal-half sequencing: repeated steals from a 150-task block claim
// {75,37,19,9,5,2,1,1,1} just as in the SWS queue, because the policy is
// shared — only the communication structure differs.
func TestStealHalfSequence(t *testing.T) {
	const total = 150
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 2*total; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if n, err := q.Release(); err != nil || n != total {
				return fmt.Errorf("release: n=%d err=%v", n, err)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		want := []int{75, 37, 19, 9, 5, 2, 1, 1, 1}
		seen := make(map[uint64]bool)
		for i, w := range want {
			tasks, out, err := q.Steal(0)
			if err != nil {
				return fmt.Errorf("steal %d: %w", i, err)
			}
			if out != wsq.Stolen || len(tasks) != w {
				return fmt.Errorf("steal %d: out=%v len=%d want %d", i, out, len(tasks), w)
			}
			for _, d := range tasks {
				id := descID(t, d)
				if seen[id] {
					return fmt.Errorf("task %d stolen twice", id)
				}
				seen[id] = true
			}
		}
		if _, out, err := q.Steal(0); err != nil || out != wsq.Empty {
			return fmt.Errorf("post-exhaustion: out=%v err=%v", out, err)
		}
		return c.Barrier()
	})
}

func TestQueueFull(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 4})
		if err != nil {
			return err
		}
		for i := uint64(0); i < 4; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if err := q.Push(desc(9)); !errors.Is(err, wsq.ErrFull) {
			return fmt.Errorf("push into full queue: %v", err)
		}
		return nil
	})
}

// The deferred copy: after a steal, the owner's reclaim boundary advances
// only once Progress consumes the completion record.
func TestDeferredCopyReclaim(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 8; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // steal + quiet done
				return err
			}
			deadline := time.Now().Add(2 * time.Second)
			for q.RTail != 2 {
				if err := q.Progress(); err != nil {
					return err
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("rtail=%d, want 2", q.RTail)
				}
				time.Sleep(50 * time.Microsecond)
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		tasks, out, err := q.Steal(0)
		if err != nil || out != wsq.Stolen || len(tasks) != 2 {
			return fmt.Errorf("steal: out=%v n=%d err=%v", out, len(tasks), err)
		}
		if err := c.Quiet(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
}

// Lock contention: with the victim's lock wedged, a thief must give up
// with Disabled after its attempt budget rather than hang; with work
// drained it must abort Empty from the metadata poll.
func TestLockContentionAbort(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{LockAttempts: 16, ProbeEvery: 4})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 10; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			// Wedge our own lock to simulate a long-held critical section.
			if err := c.Store64(0, q.metaWordAddr(lockWord), 99); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // thief saw Disabled
				return err
			}
			// Empty the shared portion (acquire needs the lock back first).
			if err := c.Store64(0, q.metaWordAddr(lockWord), 0); err != nil {
				return err
			}
			for q.LocalCount() > 0 {
				if _, _, err := q.Pop(); err != nil {
					return err
				}
			}
			for q.SharedAvail() > 0 {
				if _, err := q.Acquire(); err != nil {
					return err
				}
				for q.LocalCount() > 0 {
					if _, _, err := q.Pop(); err != nil {
						return err
					}
				}
			}
			// Wedge the lock again: the thief's poll must see no work and
			// abort Empty before exhausting its budget.
			if err := c.Store64(0, q.metaWordAddr(lockWord), 99); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Store64(0, q.metaWordAddr(lockWord), 0)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Disabled {
			return fmt.Errorf("contended steal with work available: %v, want disabled", out)
		}
		if q.Stats().LockContended == 0 {
			return fmt.Errorf("contention not counted")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil { // owner drained + wedged lock
			return err
		}
		_, out, err = q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Empty {
			return fmt.Errorf("contended steal with no work: %v, want empty (abort)", out)
		}
		if q.Stats().AbortedSteals == 0 {
			return fmt.Errorf("abort not counted")
		}
		return c.Barrier()
	})
}

// Concurrency stress mirroring the SWS test: no task lost, none stolen
// twice, across one producer and several concurrent thieves.
func TestConcurrentStealStress(t *testing.T) {
	const npes = 5
	const total = 3000
	var claimed [total]atomic.Bool
	var got atomic.Int64
	runWorld(t, npes, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 1024})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		record := func(ts []task.Desc) error {
			for _, d := range ts {
				id := descID(t, d)
				if id >= total {
					return fmt.Errorf("bogus id %d", id)
				}
				if claimed[id].Swap(true) {
					return fmt.Errorf("task %d obtained twice", id)
				}
				got.Add(1)
			}
			return nil
		}
		if c.Rank() == 0 {
			next := uint64(0)
			for got.Load() < total {
				for i := 0; i < 64 && next < total; i++ {
					if err := q.Push(desc(next)); err != nil {
						if errors.Is(err, wsq.ErrFull) {
							break
						}
						return err
					}
					next++
				}
				if _, err := q.Release(); err != nil {
					return err
				}
				if err := q.Progress(); err != nil {
					return err
				}
				for i := 0; i < 8; i++ {
					d, ok, err := q.Pop()
					if err != nil {
						return err
					}
					if !ok {
						if _, err := q.Acquire(); err != nil {
							return err
						}
						continue
					}
					if err := record([]task.Desc{d}); err != nil {
						return err
					}
				}
			}
			return c.Barrier()
		}
		for got.Load() < total {
			tasks, out, err := q.Steal(0)
			if err != nil {
				return err
			}
			if out == wsq.Stolen {
				if err := record(tasks); err != nil {
					return err
				}
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
		return c.Barrier()
	})
	if got.Load() != total {
		t.Fatalf("got %d tasks, want %d", got.Load(), total)
	}
	for i := range claimed {
		if !claimed[i].Load() {
			t.Fatalf("task %d lost", i)
		}
	}
}

// Wrap coverage: a small ring cycled through many rounds, with steals
// crossing the physical buffer boundary.
func TestWrappedSteals(t *testing.T) {
	const rounds = 40
	const batch = 12
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 16})
		if err != nil {
			return err
		}
		var next uint64
		if c.Rank() == 0 {
			for r := 0; r < rounds; r++ {
				for i := 0; i < batch; i++ {
					if err := q.Push(desc(next)); err != nil {
						return err
					}
					next++
				}
				if _, err := q.Release(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for {
					if _, ok, err := q.Pop(); err != nil {
						return err
					} else if !ok {
						if n, err := q.Acquire(); err != nil {
							return err
						} else if n == 0 {
							break
						}
					}
				}
				if err := q.Progress(); err != nil {
					return err
				}
			}
			return nil
		}
		seen := make(map[uint64]bool)
		for r := 0; r < rounds; r++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			for s := 0; s < 2; s++ {
				tasks, out, err := q.Steal(0)
				if err != nil {
					return err
				}
				if out == wsq.Stolen {
					for _, d := range tasks {
						id := descID(t, d)
						if seen[id] {
							return fmt.Errorf("round %d: task %d stolen twice", r, id)
						}
						seen[id] = true
					}
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if len(seen) == 0 {
			return fmt.Errorf("no tasks stolen")
		}
		return nil
	})
}

// TestAcquireFailsWhenLockHolderDies: a thief killed while it holds the
// owner's queue lock never releases it, so the owner's Acquire must fail
// with an error wrapping shmem.ErrPeerDead once the holder is declared
// dead, not spin on the lock word forever.
func TestAcquireFailsWhenLockHolderDies(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, DeadAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	locked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *shmem.Ctx) error {
			q, err := NewQueue(c, Options{Capacity: 16})
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				defer close(locked)
				if got, err := c.CompareSwap64(0, q.metaWordAddr(lockWord), 0, 2); err != nil || got != 0 {
					return fmt.Errorf("taking PE 0's lock: held by %d, %v", got, err)
				}
				w.Kill(1)
				return nil
			}
			<-locked
			if _, err := q.Acquire(); !errors.Is(err, shmem.ErrPeerDead) {
				return fmt.Errorf("Acquire under a dead holder's lock returned %v, want ErrPeerDead", err)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire still waiting on the lock of a PE killed 10 s ago")
	}
}
