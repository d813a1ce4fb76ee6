package core

import (
	"fmt"
	"runtime"
	"testing"

	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// TestStealAllocs pins the steal hot path's allocation budget: claim
// (fetch-add), block copy, and completion notify must not allocate beyond
// the returned task slice. The pooled wire path exists to keep this flat;
// a regression here means a per-steal allocation crept back in.
func TestStealAllocs(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{
			Capacity: 2048, PayloadCap: 16, Epochs: true,
		})
		if err != nil {
			return err
		}
		// Each round the owner pushes 2 tasks and releases 1, so every block
		// is one task and every steal a single-task steal. Zero-length
		// payloads so Decode's payload copy stays nil: the budget below is
		// the steal machinery's own. The first rounds warm the reusable
		// staging (stealBuf, NBI queue) out of band.
		const warm, rounds = 5, 205
		var ms0, ms1 runtime.MemStats
		var mallocs uint64
		for r := range rounds {
			if c.Rank() == 0 {
				for range 2 {
					if err := q.Push(task.Desc{}); err != nil {
						return err
					}
				}
				if n, err := q.Release(); err != nil || n != 1 {
					return fmt.Errorf("round %d: release n=%d err=%v", r, n, err)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				// The owner parks in the barrier below (a cond wait, not a
				// spin) while the malloc counters, which are global, are
				// read around the steal.
				runtime.ReadMemStats(&ms0)
				tasks, out, err := q.Steal(0)
				runtime.ReadMemStats(&ms1)
				if err != nil || out != wsq.Stolen || len(tasks) != 1 {
					return fmt.Errorf("round %d: steal out=%v n=%d err=%v", r, out, len(tasks), err)
				}
				if r >= warm {
					mallocs += ms1.Mallocs - ms0.Mallocs
				}
				if err := c.Quiet(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				// Pop the task the release kept local, so the next round
				// again pushes 2 and releases 1.
				if _, ok, err := q.Pop(); err != nil || !ok {
					return fmt.Errorf("round %d: pop ok=%v err=%v", r, ok, err)
				}
			}
		}
		if allocs := float64(mallocs) / (rounds - warm); allocs > 2 {
			t.Errorf("steal hot path allocates %.1f objects/op, want <= 2", allocs)
		}
		return nil
	})
}

// TestWrappedStealRoundTrips asserts the paper's 3-communication steal
// bound holds even when the claimed block wraps the circular buffer: one
// blocking claim (fetch-add), ONE blocking copy (a vectored get, not two
// gets), and one non-blocking completion store — on both in-process
// transports.
func TestWrappedStealRoundTrips(t *testing.T) {
	for _, kind := range []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, Transport: kind})
			if err != nil {
				t.Fatalf("NewWorld: %v", err)
			}
			wrapped := 0
			err = w.Run(func(c *shmem.Ctx) error {
				q, err := NewQueue(c, Options{Capacity: 16, PayloadCap: 16, Epochs: true})
				if err != nil {
					return err
				}
				// 10 tasks/round: Release shares 5, so the block tail
				// advances 5 per round mod 16 and periodically lands on
				// slot 15 — where the first claimed block (2 tasks under
				// steal-half) wraps the ring.
				const rounds = 48
				for r := 0; r < rounds; r++ {
					if c.Rank() == 0 {
						for i := 0; i < 10; i++ {
							if err := q.Push(task.Desc{}); err != nil {
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
						if _, err := q.Acquire(); err != nil {
							return err
						}
						if err := q.Progress(); err != nil {
							return err
						}
						continue
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					for {
						before := c.Counters().Snapshot()
						tasks, out, err := q.Steal(0)
						if err != nil {
							return err
						}
						d := c.Counters().Snapshot().Sub(before)
						if out != wsq.Stolen {
							break
						}
						if len(tasks) == 0 {
							return fmt.Errorf("round %d: stolen 0 tasks", r)
						}
						if d.Of(shmem.OpFetchAdd) != 1 {
							return fmt.Errorf("round %d: %d claim fetch-adds, want 1 (%v)", r, d.Of(shmem.OpFetchAdd), d)
						}
						if gets := d.Of(shmem.OpGet) + d.Of(shmem.OpGetV); gets != 1 {
							return fmt.Errorf("round %d: %d block copies, want exactly 1 even wrapped (%v)", r, gets, d)
						}
						if d.Blocking() != 2 {
							return fmt.Errorf("round %d: %d blocking comms per steal, want 2 (%v)", r, d.Blocking(), d)
						}
						if d.NonBlocking() != 1 {
							return fmt.Errorf("round %d: %d non-blocking comms, want 1 completion store (%v)", r, d.NonBlocking(), d)
						}
						if d.Of(shmem.OpGetV) == 1 {
							wrapped++
						}
					}
					if err := c.Quiet(); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if wrapped == 0 {
				t.Fatal("no steal ever wrapped the ring: the vectored-get path went unexercised")
			}
		})
	}
}

// TestWrappedSDCStealRoundTrips holds the SDC baseline to Figure 2's count
// when the claimed block wraps the ring, as TestWrappedStealRoundTrips holds
// SWS to its 3: lock, metadata get, tail put, unlock, ONE block copy (a
// vectored get when it wraps) and the non-blocking completion record — 6
// communications, 5 of them blocking. The copy is the buffer's
// (wsq.Slots.CopyBlock), the same code an SWS thief copies with.
func TestWrappedSDCStealRoundTrips(t *testing.T) {
	for _, kind := range []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, Transport: kind})
			if err != nil {
				t.Fatalf("NewWorld: %v", err)
			}
			wrapped := 0
			err = w.Run(func(c *shmem.Ctx) error {
				q, err := sdc.NewQueue(c, sdc.Options{Capacity: 16, PayloadCap: 16})
				if err != nil {
					return err
				}
				// As above: 10 tasks a round, 5 shared, so the shared
				// block's tail walks the 16-slot ring and its steals wrap.
				for r := range 48 {
					if c.Rank() == 0 {
						for range 10 {
							if err := q.Push(task.Desc{}); err != nil {
								return err
							}
						}
						if _, err := q.Release(); err != nil {
							return err
						}
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					for c.Rank() == 1 {
						before := c.Counters().Snapshot()
						_, out, err := q.Steal(0)
						if err != nil {
							return err
						}
						if out != wsq.Stolen {
							break
						}
						d := c.Counters().Snapshot().Sub(before)
						if d.Total() != 6 || d.Blocking() != 5 || d.Of(shmem.OpGet)+d.Of(shmem.OpGetV) != 2 {
							return fmt.Errorf("round %d: steal used %d comms, %d blocking, want 6 and 5 with 2 gets (%v)", r, d.Total(), d.Blocking(), d)
						}
						wrapped += int(d.Of(shmem.OpGetV))
					}
					if err := c.Quiet(); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						for {
							if _, ok, err := q.Pop(); err != nil {
								return err
							} else if !ok {
								break
							}
						}
						if _, err := q.Acquire(); err != nil {
							return err
						}
						if err := q.Progress(); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if wrapped == 0 {
				t.Fatal("no SDC steal wrapped the ring: the vectored-get path went unexercised")
			}
		})
	}
}
