package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

var _ wsq.Queue = (*Queue)(nil)

// runWorld drives a body on a fresh local-transport world.
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

// desc builds a small test task whose payload encodes id.
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
		if _, err := NewQueue(c, Options{Capacity: MaxTailV2 + 2, Epochs: true}); err == nil {
			return fmt.Errorf("oversized capacity accepted for v2")
		}
		if _, err := NewQueue(c, Options{PayloadCap: -1}); err == nil {
			return fmt.Errorf("negative payload accepted")
		}
		return nil
	})
}

func TestPushPopLIFO(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		for i := uint64(0); i < 10; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if q.LocalCount() != 10 {
			return fmt.Errorf("LocalCount = %d, want 10", q.LocalCount())
		}
		for i := 9; i >= 0; i-- {
			d, ok, err := q.Pop()
			if err != nil || !ok {
				return fmt.Errorf("pop %d: ok=%v err=%v", i, ok, err)
			}
			if got := descID(t, d); got != uint64(i) {
				return fmt.Errorf("pop order: got %d, want %d (LIFO)", got, i)
			}
		}
		if _, ok, _ := q.Pop(); ok {
			return fmt.Errorf("pop from empty queue succeeded")
		}
		return nil
	})
}

func TestReleaseExposesHalf(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		for i := uint64(0); i < 10; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		n, err := q.Release()
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("Release exposed %d, want 5", n)
		}
		if q.LocalCount() != 5 || q.SharedAvail() != 5 {
			return fmt.Errorf("after release: local=%d shared=%d", q.LocalCount(), q.SharedAvail())
		}
		// Second release is a no-op while shared work remains.
		n, err = q.Release()
		if err != nil || n != 0 {
			return fmt.Errorf("redundant release: n=%d err=%v", n, err)
		}
		// The released tasks are the oldest (bottom of the local portion):
		// pops must return 9..5.
		for i := 9; i >= 5; i-- {
			d, ok, err := q.Pop()
			if err != nil || !ok {
				return fmt.Errorf("pop: %v", err)
			}
			if got := descID(t, d); got != uint64(i) {
				return fmt.Errorf("pop got %d, want %d", got, i)
			}
		}
		return nil
	})
}

func TestReleaseNeedsTwoTasks(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if err := q.Push(desc(1)); err != nil {
			return err
		}
		n, err := q.Release()
		if err != nil || n != 0 {
			return fmt.Errorf("release of single task: n=%d err=%v", n, err)
		}
		return nil
	})
}

func TestAcquireMovesHalfBack(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		for i := uint64(0); i < 20; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if _, err := q.Release(); err != nil { // shared=10, local=10
			return err
		}
		for q.LocalCount() > 0 { // drain local
			if _, _, err := q.Pop(); err != nil {
				return err
			}
		}
		moved, err := q.Acquire()
		if err != nil {
			return err
		}
		if moved != 5 {
			return fmt.Errorf("Acquire moved %d, want 5", moved)
		}
		if q.LocalCount() != 5 || q.SharedAvail() != 5 {
			return fmt.Errorf("after acquire: local=%d shared=%d", q.LocalCount(), q.SharedAvail())
		}
		return nil
	})
}

func TestAcquireOnEmptySharedReopens(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		moved, err := q.Acquire()
		if err != nil || moved != 0 {
			return fmt.Errorf("acquire on empty: moved=%d err=%v", moved, err)
		}
		// The queue must still be valid (steals see empty, not disabled).
		w, err := c.Load64(c.Rank(), q.stealvalAddr)
		if err != nil {
			return err
		}
		if !q.format.Unpack(w).Valid {
			return fmt.Errorf("queue left disabled after empty acquire")
		}
		return nil
	})
}

// A full steal-plan walk by one thief: steals must follow the steal-half
// sequence and carry the right task contents.
func TestStealSequenceMatchesPlan(t *testing.T) {
	const total = 150
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Expose exactly 150 tasks: push 300, release half.
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
			return c.Barrier() // wait for thief to finish
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
				return fmt.Errorf("steal %d: outcome=%v len=%d, want stolen %d", i, out, len(tasks), w)
			}
			for _, d := range tasks {
				id := descID(t, d)
				if id >= total {
					return fmt.Errorf("stole unexposed task %d", id)
				}
				if seen[id] {
					return fmt.Errorf("task %d stolen twice", id)
				}
				seen[id] = true
			}
		}
		if len(seen) != total {
			return fmt.Errorf("stole %d distinct tasks, want %d", len(seen), total)
		}
		// Plan exhausted: next attempt reports empty.
		_, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Empty {
			return fmt.Errorf("post-exhaustion steal: %v, want empty", out)
		}
		return c.Barrier()
	})
}

// Steal-half is the queue's only volume, damping or not: with damping
// off, a thief that walks a 150-task block still takes §4's sequence.
func TestStealHalfPolicyQueueDefault(t *testing.T) {
	want := []int{75, 37, 19, 9, 5, 2, 1, 1, 1}
	var sizes []int
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Epochs: true})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 300; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if n, err := q.Release(); err != nil || n != 150 {
				return fmt.Errorf("release: n=%d err=%v", n, err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for c.Rank() == 1 {
			tasks, out, err := q.Steal(0)
			if err != nil {
				return err
			}
			if out != wsq.Stolen {
				break
			}
			sizes = append(sizes, len(tasks))
		}
		return c.Barrier()
	})
	if fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("steal sizes %v, want %v", sizes, want)
	}
}

// Figure 2: an SWS steal is exactly 3 communications, 2 of them blocking.
func TestStealCommunicationCount(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
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
		if out != wsq.Stolen || len(tasks) == 0 {
			return fmt.Errorf("steal failed: %v", out)
		}
		if d.Total() != 3 {
			return fmt.Errorf("steal used %d comms (%v), want 3", d.Total(), d)
		}
		if d.Blocking() != 2 {
			return fmt.Errorf("steal used %d blocking comms, want 2", d.Blocking())
		}
		if d.Of(shmem.OpFetchAdd) != 1 || d.Of(shmem.OpGet) != 1 || d.Of(shmem.OpStoreNBI) != 1 {
			return fmt.Errorf("steal op mix wrong: %v", d)
		}
		return c.Barrier()
	})
}

// An empty steal attempt costs exactly one communication (the fetch-add) —
// the single-communication work-discovery test the paper credits for flat
// search times.
func TestEmptyStealIsOneComm(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Epochs: true}) // damping off
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
			if d.Total() != 1 || d.Of(shmem.OpFetchAdd) != 1 {
				return fmt.Errorf("empty steal used %v, want 1 fetch-add", d)
			}
		}
		return c.Barrier()
	})
}

func TestStealSelfAndRangeErrors(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if _, _, err := q.Steal(c.Rank()); err == nil {
			return fmt.Errorf("self-steal accepted")
		}
		if _, _, err := q.Steal(5); err == nil {
			return fmt.Errorf("out-of-range victim accepted")
		}
		return c.Barrier()
	})
}

// Steal damping: after a victim turns up empty past the threshold, the
// thief switches to read-only probes; when the victim releases new work
// the thief resumes fetch-add stealing.
func TestStealDamping(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Epochs: true, Damping: true})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Barrier(); err != nil { // thief hammers empty queue
				return err
			}
			if err := c.Barrier(); err != nil { // thief verified empty-mode
				return err
			}
			for i := uint64(0); i < 40; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // work released
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Hammer the empty queue until damping kicks in.
		for i := 0; i < 10; i++ {
			if _, out, err := q.Steal(0); err != nil || out != wsq.Empty {
				return fmt.Errorf("steal %d: out=%v err=%v", i, out, err)
			}
		}
		if !q.EmptyMode(0) {
			return fmt.Errorf("victim not in empty-mode after repeated empty steals")
		}
		// In empty-mode, an attempt costs one read-only probe.
		before := c.Counters().Snapshot()
		if _, out, err := q.Steal(0); err != nil || out != wsq.Empty {
			return fmt.Errorf("probe steal: out=%v err=%v", out, err)
		}
		d := c.Counters().Snapshot().Sub(before)
		if d.Total() != 1 || d.Of(shmem.OpLoad) != 1 {
			return fmt.Errorf("empty-mode attempt used %v, want 1 atomic-fetch", d)
		}
		if err := c.Barrier(); err != nil { // signal owner to release work
			return err
		}
		if err := c.Barrier(); err != nil { // owner released
			return err
		}
		// Probe sees fresh work, flips back to full-mode, steals for real.
		tasks, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Stolen || len(tasks) != 10 {
			return fmt.Errorf("post-release steal: out=%v n=%d, want stolen 10", out, len(tasks))
		}
		if q.EmptyMode(0) {
			return fmt.Errorf("victim still in empty-mode after successful steal")
		}
		return c.Barrier()
	})
}

// A disabled queue (owner mid-reset) must yield Disabled, and the stray
// asteals increment must not corrupt the queue.
func TestStealFromDisabledQueue(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
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
			// Simulate the mid-reset window: disable the stealval exactly
			// as retire() does.
			if _, err := c.Swap64(c.Rank(), q.stealvalAddr, q.format.Disabled()); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // thief probed disabled queue
				return err
			}
			// Re-publish; the thief's stray increment must have vanished.
			if err := q.publish(5, q.stail); err != nil {
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
		_, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Disabled {
			return fmt.Errorf("steal from disabled queue: %v", out)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil { // owner re-published
			return err
		}
		tasks, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Stolen || len(tasks) != 2 {
			return fmt.Errorf("steal after re-publish: out=%v n=%d want stolen 2", out, len(tasks))
		}
		return c.Barrier()
	})
}

func TestQueueFull(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 8, Epochs: true})
		if err != nil {
			return err
		}
		for i := uint64(0); i < 8; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if err := q.Push(desc(99)); !errors.Is(err, ErrFull) {
			return fmt.Errorf("push into full queue: %v, want ErrFull", err)
		}
		// Draining one task frees a slot.
		if _, _, err := q.Pop(); err != nil {
			return err
		}
		if err := q.Push(desc(100)); err != nil {
			return err
		}
		return nil
	})
}

// The full error must name capacity and rank while staying matchable with
// errors.Is.
func TestErrFullNamesCapacityAndRank(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 4, Epochs: true})
		if err != nil {
			return err
		}
		var full error
		for i := uint64(0); i < 8 && full == nil; i++ {
			full = q.Push(desc(i))
		}
		if full == nil {
			return fmt.Errorf("capacity-4 queue accepted 8 pushes")
		}
		if !errors.Is(full, ErrFull) {
			return fmt.Errorf("full error %v does not match ErrFull", full)
		}
		for _, want := range []string{"capacity 4", "rank 0"} {
			if !strings.Contains(full.Error(), want) {
				return fmt.Errorf("full error %q does not name %q", full, want)
			}
		}
		return nil
	})
}

// Ring wrap: cycle a small queue through many produce/steal rounds so the
// physical buffer wraps repeatedly, including wrapped steals.
func TestWrappedSteals(t *testing.T) {
	const rounds = 40
	const batch = 12 // capacity 16 forces wraps quickly
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 16, Epochs: true})
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
				if err := c.Barrier(); err != nil { // thief's turn
					return err
				}
				if err := c.Barrier(); err != nil { // thief done
					return err
				}
				// Drain whatever is left (local + reacquired shared).
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
			// Steal twice per round; blocks may wrap the ring.
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
			return fmt.Errorf("no tasks stolen across %d rounds", rounds)
		}
		return nil
	})
}

// Completion epochs: the owner must be able to reset the queue while a
// steal is still in flight, without waiting (V2), and must reclaim space
// only after the in-flight completion lands.
func TestEpochOverlapsInFlightSteal(t *testing.T) {
	fault := &shmem.DelayFaults{Fraction: 1.0, MaxDelay: 5 * time.Millisecond, Seed: 11}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 40; i++ {
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
			if err := c.Barrier(); err != nil { // thief has claimed + copied
				return err
			}
			// The completion store is delayed by fault injection; with
			// epochs the owner can still retire the block and publish a
			// fresh one immediately (drain local first so acquire applies).
			for {
				if _, ok, err := q.Pop(); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			moved, err := q.Acquire()
			if err != nil {
				return err
			}
			// Structural no-wait check (a wall-clock bound here flakes on
			// loaded machines): with epochs the acquire must never have
			// polled for the in-flight completion.
			if polls := q.Stats().ResetPolls; polls != 0 {
				return fmt.Errorf("acquire polled %d times on in-flight steal despite epochs", polls)
			}
			if moved == 0 {
				return fmt.Errorf("acquire moved nothing")
			}
			// Eventually the delayed completion lands and space reclaims.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if err := q.Progress(); err != nil {
					return err
				}
				if len(q.recs) == 1 { // only the current epoch remains
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("delayed completion never reclaimed: %d epochs outstanding", len(q.recs))
				}
				time.Sleep(100 * time.Microsecond)
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		tasks, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Stolen || len(tasks) != 10 {
			return fmt.Errorf("steal: out=%v n=%d", out, len(tasks))
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Without epochs (format V1), the same scenario forces the owner to wait
// for the in-flight completion before its reset finishes — the §4.1
// behaviour the paper's epochs remove.
func TestV1ResetWaitsForInFlight(t *testing.T) {
	const delay = 20 * time.Millisecond
	fault := &shmem.DelayFaults{Fraction: 1.0, MaxDelay: delay, Seed: 11}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Epochs: false})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 40; i++ {
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
			if err := c.Barrier(); err != nil {
				return err
			}
			for {
				if _, ok, err := q.Pop(); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			moved, err := q.Acquire()
			if err != nil {
				return err
			}
			if moved == 0 {
				return fmt.Errorf("acquire moved nothing")
			}
			// All draining records must be gone: V1 waited.
			if len(q.recs) != 1 {
				return fmt.Errorf("v1 acquire returned with %d records outstanding", len(q.recs))
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, out, err := q.Steal(0); err != nil || out != wsq.Stolen {
			return fmt.Errorf("steal: out=%v err=%v", out, err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A release whose next epoch's parity is still draining is deferred, not
// waited out: the owner keeps the work local and returns at once. The thief
// claims every block of two epochs with raw fetch-adds and withholds the
// completion stores until well after the owner's third Release has
// answered.
func TestReleaseDefersBusyParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"fixed", DefaultOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runWorld(t, 2, func(c *shmem.Ctx) error {
				q, err := NewQueue(c, tc.opts)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					for i := uint64(0); i < 64; i++ {
						if err := q.Push(desc(i)); err != nil {
							return err
						}
					}
					for round := 1; round <= 2; round++ {
						if n, err := q.Release(); err != nil || n == 0 {
							return fmt.Errorf("release %d: n=%d err=%v", round, n, err)
						}
						if err := c.Barrier(); err != nil { // block published
							return err
						}
						if err := c.Barrier(); err != nil { // every block claimed
							return err
						}
					}
					polls := q.Stats().ResetPolls
					if n, err := q.Release(); n != 0 || err != nil {
						return fmt.Errorf("release 3 with the next parity draining: n=%d err=%v, want 0, nil", n, err)
					}
					if got := q.Stats().ResetPolls; got != polls {
						return fmt.Errorf("release 3 polled %d times instead of deferring", got-polls)
					}
					return c.Barrier()
				}
				type claim struct{ epoch, attempt, k int }
				var held []claim
				for round := 1; round <= 2; round++ {
					if err := c.Barrier(); err != nil {
						return err
					}
					for {
						old, err := c.FetchAdd64(0, q.StealvalAddr(), AstealsUnit)
						if err != nil {
							return err
						}
						v := q.format.Unpack(old)
						if int(v.Asteals) >= wsq.PlanLen(v.ITasks) {
							break
						}
						held = append(held, claim{v.Epoch, int(v.Asteals), wsq.StealHalf(v.ITasks, int(v.Asteals))})
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				// An owner that polls for these stores instead of deferring
				// gets them here, and the test fails in a fraction of a
				// second rather than at the reset-poll bound.
				time.Sleep(200 * time.Millisecond)
				for _, h := range held {
					if err := c.Store64(0, q.CompletionSlotAddr(h.epoch, h.attempt), uint64(h.k)); err != nil {
						return err
					}
				}
				return c.Barrier()
			})
		})
	}
}

// Concurrency stress: one producer, several thieves, no task lost or
// duplicated. This is the package's core safety invariant.
func TestConcurrentStealStress(t *testing.T) {
	const npes = 5
	const total = 3000
	var claimed [total]atomic.Bool
	var got atomic.Int64
	runWorld(t, npes, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 1024, Epochs: true, Damping: true})
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
					return fmt.Errorf("bogus task id %d", id)
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
				// Keep the queue supplied and shared.
				for i := 0; i < 64 && next < total; i++ {
					if err := q.Push(desc(next)); err != nil {
						if errors.Is(err, ErrFull) {
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
				// Consume a little locally too.
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
		// Thieves.
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

// The same stress with the V1 format and damping off — the baseline
// configuration of the SWS queue.
func TestConcurrentStealStressV1(t *testing.T) {
	const npes = 4
	const total = 1500
	var claimed [total]atomic.Bool
	var got atomic.Int64
	runWorld(t, npes, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 512, Epochs: false, Damping: false})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		record := func(ts []task.Desc) error {
			for _, d := range ts {
				id := descID(t, d)
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
				for i := 0; i < 32 && next < total; i++ {
					if err := q.Push(desc(next)); err != nil {
						if errors.Is(err, ErrFull) {
							break
						}
						return err
					}
					next++
				}
				if _, err := q.Release(); err != nil {
					return err
				}
				for i := 0; i < 4; i++ {
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
}

// Table 1's task-state lifecycle, observed through the queue's own
// bookkeeping: Available (released) -> Claimed (fetch-added) -> Finished
// (completion landed) -> Invalid (space reclaimed).
func TestTaskStateLifecycle(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 8; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			// Available: released to the shared portion.
			if n, err := q.Release(); err != nil || n != 4 {
				return fmt.Errorf("release: %d, %v", n, err)
			}
			if q.SharedAvail() != 4 {
				return fmt.Errorf("avail = %d, want 4", q.SharedAvail())
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // thief claimed 2
				return err
			}
			// Claimed: owner's view of available shrinks to 2.
			if q.SharedAvail() != 2 {
				return fmt.Errorf("after claim avail = %d, want 2", q.SharedAvail())
			}
			// Finished: once the completion lands, progress reclaims the
			// space (rtail advances past the stolen block).
			deadline := time.Now().Add(2 * time.Second)
			for q.rtail != 2 {
				if err := q.Progress(); err != nil {
					return err
				}
				// Progress only drains *retired* epochs; retire this one
				// by acquiring after draining local work.
				if time.Now().After(deadline) {
					return fmt.Errorf("rtail = %d, want 2", q.rtail)
				}
				if q.LocalCount() == 0 {
					if _, err := q.Acquire(); err != nil {
						return err
					}
				} else if _, _, err := q.Pop(); err != nil {
					return err
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
		if err := c.Quiet(); err != nil { // force the completion to land
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
}
