package wsq_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sws/internal/core"
	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// The queues under test: one split buffer (wsq.Slots), three ways to
// claim from it.
var protocols = []struct {
	name string
	open func(c *shmem.Ctx, capacity int) (wsq.Queue, error)
}{
	{"sws", func(c *shmem.Ctx, n int) (wsq.Queue, error) {
		return core.NewQueue(c, core.Options{Capacity: n, PayloadCap: 16, Epochs: true, Damping: true})
	}},
	{"sws-fused", func(c *shmem.Ctx, n int) (wsq.Queue, error) {
		return core.NewQueue(c, core.Options{Capacity: n, PayloadCap: 16, Epochs: true, Damping: true, Fused: true})
	}},
	{"sdc", func(c *shmem.Ctx, n int) (wsq.Queue, error) {
		return sdc.NewQueue(c, sdc.Options{Capacity: n, PayloadCap: 16})
	}},
}

func runWorld(t *testing.T, npes int, body func(*shmem.Ctx) error) {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: npes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

func desc(id uint64) task.Desc { return task.Desc{Handle: 1, Payload: task.Args(id)} }

func id(d task.Desc) (uint64, error) {
	args, err := task.ParseArgs(d.Payload, 1)
	if err != nil {
		return 0, err
	}
	return args[0], nil
}

func pushIDs(q wsq.Queue, from, n uint64) error {
	for i := from; i < from+n; i++ {
		if err := q.Push(desc(i)); err != nil {
			return fmt.Errorf("push %d: %w", i, err)
		}
	}
	return nil
}

// popIDs pops the local portion dry and returns the IDs in pop order.
func popIDs(q wsq.Queue) ([]uint64, error) {
	var got []uint64
	for {
		d, ok, err := q.Pop()
		if err != nil || !ok {
			return got, err
		}
		v, err := id(d)
		if err != nil {
			return got, err
		}
		got = append(got, v)
	}
}

// Push, Pop and PushSlots across the ring's wrap: the owner's LIFO order
// holds through every physical wrap, and PushSlots lands a run that wraps
// in the order of single pushes.
func TestOwnerOpsAcrossWrap(t *testing.T) {
	codec, err := task.NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			runWorld(t, 1, func(c *shmem.Ctx) error {
				q, err := p.open(c, 8)
				if err != nil {
					return err
				}
				next := uint64(0)
				for round := range 12 {
					// Shift the head by 3 each round so pushes start on
					// every slot and runs of 5 wrap the 8-slot ring.
					if err := pushIDs(q, next, 3); err != nil {
						return err
					}
					if _, err := popIDs(q); err != nil {
						return err
					}
					next += 3
					enc := make([]byte, 5*codec.SlotSize())
					for i := range 5 {
						if err := codec.Encode(enc[i*codec.SlotSize():], desc(next+uint64(i))); err != nil {
							return err
						}
					}
					var want []uint64
					if round%2 == 0 {
						if ok, err := q.PushSlots(enc, 5); err != nil || !ok {
							return fmt.Errorf("round %d: PushSlots ok=%v err=%v", round, ok, err)
						}
					} else if err := pushIDs(q, next, 5); err != nil {
						return err
					}
					for i := range 5 {
						want = append(want, next+4-uint64(i))
					}
					next += 5
					got, err := popIDs(q)
					if err != nil {
						return err
					}
					if !slices.Equal(got, want) {
						return fmt.Errorf("round %d: popped %v, want %v", round, got, want)
					}
				}
				if q.LocalCount() != 0 {
					return fmt.Errorf("local count %d after draining", q.LocalCount())
				}
				return nil
			})
		})
	}
}

// A full ring reclaims through the protocol's Progress once before it
// reports ErrFull: a push into a ring whose stolen block was copied
// succeeds, and only a push that Progress can free nothing for fails.
func TestErrFullOnlyAfterProgress(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			runWorld(t, 2, func(c *shmem.Ctx) error {
				q, err := p.open(c, 8)
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Barrier(); err != nil {
						return err
					}
					// Claim and copy half of the 4 shared tasks.
					if tasks, out, err := q.Steal(0); err != nil || out != wsq.Stolen || len(tasks) != 2 {
						return fmt.Errorf("steal: out=%v n=%d err=%v", out, len(tasks), err)
					}
					if err := c.Quiet(); err != nil {
						return err
					}
					return c.Barrier()
				}
				if err := pushIDs(q, 0, 8); err != nil {
					return err
				}
				if n, err := q.Release(); err != nil || n != 4 {
					return fmt.Errorf("release: n=%d err=%v", n, err)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				// Pop the local half and take back half of what is left
				// shared: 4 slots hold tasks, 2 await reclaim.
				if _, err := popIDs(q); err != nil {
					return err
				}
				if n, err := q.Acquire(); err != nil || n != 1 {
					return fmt.Errorf("acquire: n=%d err=%v", n, err)
				}
				if err := pushIDs(q, 8, 4); err != nil {
					return err
				}
				// The ring is full; these two land only by reclaiming the
				// stolen block.
				if err := pushIDs(q, 12, 2); err != nil {
					return fmt.Errorf("push into a reclaimable ring: %w", err)
				}
				if ok, err := q.PushSlots(nil, 1); ok || err != nil {
					return fmt.Errorf("PushSlots into a full ring: ok=%v err=%v", ok, err)
				}
				full := q.Push(desc(99))
				if !errors.Is(full, wsq.ErrFull) {
					return fmt.Errorf("push into a full ring: %v, want ErrFull", full)
				}
				for _, want := range []string{"capacity 8", "rank 0"} {
					if !strings.Contains(full.Error(), want) {
						return fmt.Errorf("full error %q does not name %q", full, want)
					}
				}
				return nil
			})
		})
	}
}

// stealRounds runs three rounds of 14 pushes and a release on PE 0's
// 16-slot ring, with PE 1 stealing each shared block until it is empty;
// the third round's block starts on slot 14, so its first steal wraps. It
// returns the stolen IDs in steal order and PE 1's count of vectored gets.
func stealRounds(t *testing.T, open func(*shmem.Ctx, int) (wsq.Queue, error)) (stolen []uint64, getvs uint64) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := open(c, 16)
		if err != nil {
			return err
		}
		for r := range uint64(3) {
			if c.Rank() == 0 {
				if err := pushIDs(q, 100*r, 14); err != nil {
					return err
				}
				if n, err := q.Release(); err != nil || n != 7 {
					return fmt.Errorf("round %d: release n=%d err=%v", r, n, err)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				before := c.Counters().Snapshot()
				for {
					tasks, out, err := q.Steal(0)
					if err != nil {
						return err
					}
					if out != wsq.Stolen {
						break
					}
					for _, d := range tasks {
						v, err := id(d)
						if err != nil {
							return err
						}
						stolen = append(stolen, v)
					}
				}
				getvs += c.Counters().Snapshot().Sub(before).Of(shmem.OpGetV)
				if err := c.Quiet(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				// Drain, retire the emptied block, and reclaim its slots.
				if _, err := popIDs(q); err != nil {
					return err
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
	return stolen, getvs
}

// A wrapped steal returns the same descriptors in the same order whichever
// protocol claims it: the block copy is one piece of code.
func TestWrappedStealSameOnEveryProtocol(t *testing.T) {
	var want []uint64
	for _, p := range protocols {
		stolen, getvs := stealRounds(t, p.open)
		if p.name != "sws-fused" && getvs == 0 {
			t.Errorf("%s: no steal wrapped the ring", p.name)
		}
		if want == nil {
			want = stolen
			if len(want) != 21 {
				t.Fatalf("%s stole %d tasks, want 3 blocks of 7: %v", p.name, len(want), want)
			}
			continue
		}
		if !slices.Equal(stolen, want) {
			t.Errorf("%s stole %v, sws stole %v", p.name, stolen, want)
		}
	}
}

// TestStealAllocs' budget on every protocol: a single-task steal allocates
// no more than the returned task slice and its payload, so the block copy
// stages in a buffer it reuses.
func TestStealAllocsEveryProtocol(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			runWorld(t, 2, func(c *shmem.Ctx) error {
				q, err := p.open(c, 2048)
				if err != nil {
					return err
				}
				const warm, rounds = 5, 105
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
						if _, ok, err := q.Pop(); err != nil || !ok {
							return fmt.Errorf("round %d: pop ok=%v err=%v", r, ok, err)
						}
					}
				}
				if allocs := float64(mallocs) / (rounds - warm); allocs > 2 {
					return fmt.Errorf("steal allocates %.1f objects/op, want <= 2", allocs)
				}
				return nil
			})
		})
	}
}
