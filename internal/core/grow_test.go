package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Owner-only elastic behaviour: a tiny growable ring walks the whole
// ladder under push pressure, spills past the top class, and hands every
// task back in exact LIFO order across the arena/ring boundary.
func TestGrowOnPushLIFOAcrossSpill(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	if err := w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 8, Epochs: true, Growable: true, MaxGrowth: 2, SpillBlock: 4})
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(i)}); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
		}
		st := q.Stats()
		if st.Grows != 2 || st.Class != 2 || st.Capacity != 32 {
			t.Fatalf("after %d pushes: grows %d, class %d, capacity %d; want 2/2/32", n, st.Grows, st.Class, st.Capacity)
		}
		if st.Spilled == 0 || st.SpillDepth == 0 {
			t.Fatalf("ladder topped out at 32 slots yet nothing spilled: %+v", st)
		}
		if got := q.LocalCount(); got != n {
			t.Fatalf("LocalCount %d, want %d", got, n)
		}
		for i := n - 1; i >= 0; i-- {
			d, ok, err := q.Pop()
			if err != nil || !ok {
				t.Fatalf("pop expecting id %d: ok=%v err=%v", i, ok, err)
			}
			args, err := task.ParseArgs(d.Payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			if args[0] != uint64(i) {
				t.Fatalf("LIFO order broken at spill boundary: popped %d, want %d", args[0], i)
			}
		}
		if st := q.Stats(); st.SpillDepth != 0 {
			t.Fatalf("drained queue still parks %d tasks", st.SpillDepth)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A drained oversized ring folds back down one class per Release, and the
// published geometry word tracks every reseat.
func TestShrinkAfterDrain(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 8, Epochs: true, Growable: true, MaxGrowth: 2})
		if err != nil {
			return err
		}
		for i := uint64(0); i < 32; i++ {
			if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(i)}); err != nil {
				return err
			}
		}
		if st := q.Stats(); st.Class != 2 {
			t.Fatalf("class %d after 32 pushes, want 2", st.Class)
		}
		for i := 0; i < 32; i++ {
			if _, ok, err := q.Pop(); err != nil || !ok {
				t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
			}
		}
		// Each Release performs at most one shrink step; two steps fold
		// 32 -> 16 -> 8.
		for i := 0; i < 4; i++ {
			if _, err := q.Release(); err != nil {
				return err
			}
		}
		st := q.Stats()
		if st.Shrinks != 2 || st.Class != 0 || st.Capacity != 8 {
			t.Fatalf("after drain: shrinks %d, class %d, capacity %d; want 2/0/8", st.Shrinks, st.Class, st.Capacity)
		}
		w, err := c.Load64(c.Rank(), q.GeomAddr())
		if err != nil {
			return err
		}
		g := UnpackGeom(w)
		if g.Class != 0 || g.Capacity != 8 || g.Reseats != 4 {
			t.Fatalf("published geometry %+v, want class 0, capacity 8, 4 reseats", g)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGeomRoundTrip(t *testing.T) {
	for _, g := range []Geom{{}, {Class: 7, Capacity: 8192 << 7, Reseats: 1<<24 - 1}, {Class: 3, Capacity: 64, Reseats: 9}} {
		if got := UnpackGeom(PackGeom(g)); got != g {
			t.Fatalf("geometry word round trip: packed %+v, unpacked %+v", g, got)
		}
	}
}

// The non-growable full error must name capacity and rank (satellite
// bugfix) while staying matchable with errors.Is.
func TestErrFullNamesCapacityAndRank(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, Options{Capacity: 4, Epochs: true})
		if err != nil {
			return err
		}
		var full error
		for i := uint64(0); i < 8; i++ {
			if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(i)}); err != nil {
				full = err
				break
			}
		}
		if full == nil {
			t.Fatal("capacity-4 queue accepted 8 pushes")
		}
		if !errors.Is(full, ErrFull) {
			t.Fatalf("full error %v does not match ErrFull", full)
		}
		for _, want := range []string{"capacity 4", "rank 0"} {
			if !strings.Contains(full.Error(), want) {
				t.Fatalf("full error %q does not name %q", full, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Scripted stale-claim race: a thief claims a block and withholds its
// completion store while the owner is forced into a reseat. The reseat
// must wait for the store (the claim's copy targets the old region), and
// a post-reseat steal must see the new class in the fetched word. Every
// task is still obtained exactly once.
func TestReseatWaitsForStaleClaim(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Capacity: 8, Epochs: true, Growable: true, MaxGrowth: 1}

	released := make(chan struct{})     // owner -> thief: the block to claim is shared
	claimed := make(chan struct{})      // thief -> owner: claim is in flight
	stolen := make(chan []uint64, 2)    // thief -> owner: ids it obtained
	reseated := make(chan time.Time, 1) // owner -> thief: reseat finished

	if err := w.Run(func(c *shmem.Ctx) error {
		q, err := NewQueue(c, opts)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		const pushed = 16 // > capacity 8, forcing one reseat to class 1
		switch c.Rank() {
		case 0:
			for i := uint64(0); i < 6; i++ {
				if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(i)}); err != nil {
					return err
				}
			}
			moved, err := q.Release()
			if err != nil {
				return err
			}
			if moved != 3 {
				t.Fatalf("release shared %d tasks, want 3", moved)
			}
			close(released)
			<-claimed
			// Ring holds 6 with capacity 8; pushing through 16 total forces
			// the grow, whose drain must block on the withheld store.
			for i := uint64(6); i < pushed; i++ {
				if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(i)}); err != nil {
					return err
				}
			}
			st := q.Stats()
			if st.Grows != 1 || st.Class != 1 {
				t.Fatalf("owner after push storm: grows %d, class %d; want 1/1", st.Grows, st.Class)
			}
			reseated <- time.Now()
			// Let the thief take one post-reseat steal, then recover the rest.
			got := map[uint64]bool{}
			deadline := time.Now().Add(10 * time.Second)
			for {
				var thiefGot int
				for _, ids := range drainChan(stolen) {
					for _, id := range ids {
						if got[id] {
							t.Fatalf("task %d obtained twice", id)
						}
						got[id] = true
					}
					thiefGot++
				}
				d, ok, err := q.Pop()
				if err != nil {
					return err
				}
				if ok {
					args, err := task.ParseArgs(d.Payload, 1)
					if err != nil {
						return err
					}
					if got[args[0]] {
						t.Fatalf("task %d obtained twice (pop)", args[0])
					}
					got[args[0]] = true
					continue
				}
				if _, err := q.Acquire(); err != nil {
					return err
				}
				if err := q.Progress(); err != nil {
					return err
				}
				if q.LocalCount() == 0 && q.SharedAvail() == 0 {
					// Wait for any remaining thief report before concluding.
					if len(got) == pushed {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("obtained %d of %d tasks before deadline", len(got), pushed)
					}
					select {
					case ids := <-stolen:
						for _, id := range ids {
							if got[id] {
								t.Fatalf("task %d obtained twice", id)
							}
							got[id] = true
						}
					case <-time.After(time.Millisecond):
					}
				}
			}
		case 1:
			// Manual claim, exactly as Steal would issue it, with the
			// completion store withheld — once the owner has shared the
			// block (a claim racing the release fetches a closed stealval).
			<-released
			old, err := c.FetchAdd64(0, q.StealvalAddr(), AstealsUnit)
			if err != nil {
				return err
			}
			v := q.format.Unpack(old)
			if !v.Valid || v.Class != 0 || v.ITasks != 3 {
				t.Fatalf("thief fetched %+v, want valid class-0 block of 3", v)
			}
			k := wsq.StealHalf(v.ITasks, int(v.Asteals))
			off := wsq.StealOffset(v.ITasks, int(v.Asteals))
			close(claimed)
			// The owner is now pushing toward a reseat that must wait for
			// us. Copy the block from the OLD region the fetched class
			// names — this is the window a torn ring would corrupt.
			time.Sleep(20 * time.Millisecond)
			reg := q.regions[v.Class]
			slotSize := q.codec.SlotSize()
			buf := make([]byte, k*slotSize)
			spans, n, err := reg.ring.Spans(uint64(v.Tail)+uint64(off), k)
			if err != nil {
				return err
			}
			o := 0
			for i := 0; i < n; i++ {
				nb := spans[i].Count * slotSize
				if err := c.Get(0, reg.addr+shmem.Addr(spans[i].Start*slotSize), buf[o:o+nb]); err != nil {
					return err
				}
				o += nb
			}
			var ids []uint64
			for i := 0; i < k; i++ {
				d, err := q.codec.Decode(buf[i*slotSize:])
				if err != nil {
					return err
				}
				args, err := task.ParseArgs(d.Payload, 1)
				if err != nil {
					return err
				}
				ids = append(ids, args[0])
			}
			stolen <- ids
			if err := c.Store64(0, q.CompletionSlotAddr(v.Epoch, int(v.Asteals)), uint64(k)); err != nil {
				return err
			}
			<-reseated
			// Post-reseat steal through the real protocol: the fetched word
			// must now carry the new class.
			for i := 0; i < 200; i++ {
				tasks, out, err := q.Steal(0)
				if err != nil {
					return err
				}
				if out == wsq.Stolen {
					var ids []uint64
					for _, d := range tasks {
						args, err := task.ParseArgs(d.Payload, 1)
						if err != nil {
							return err
						}
						ids = append(ids, args[0])
					}
					stolen <- ids
					if err := c.Quiet(); err != nil {
						return err
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		return c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

// drainChan empties a buffered channel without blocking.
func drainChan(ch chan []uint64) [][]uint64 {
	var out [][]uint64
	for {
		select {
		case ids := <-ch:
			out = append(out, ids)
		default:
			return out
		}
	}
}

// Growable queues refuse configurations the protocol cannot carry.
func TestGrowableOptionValidation(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *shmem.Ctx) error {
		if _, err := NewQueue(c, Options{Growable: true}); err == nil {
			t.Fatal("growable queue without epochs was accepted")
		}
		if _, err := NewQueue(c, Options{Epochs: true, Growable: true, MaxGrowth: MaxClasses}); err == nil {
			t.Fatalf("MaxGrowth %d was accepted (ladder has only %d classes)", MaxClasses, MaxClasses)
		}
		// Capacity << MaxGrowth must fit the V3 tail field.
		if _, err := NewQueue(c, Options{Epochs: true, Growable: true, Capacity: MaxTailV3 + 1, MaxGrowth: 1}); err == nil {
			t.Fatal("ladder exceeding the v3 tail field was accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQueueGrow measures the elastic queue's flood/drain cycle: one
// op pushes a burst far past the starting ring (climbing the grow ladder
// into the spill arena), then pops everything back out (unspilling and
// shrinking). The presized sub-benchmark runs the same burst through a
// fixed ring large enough to hold it — the price of elasticity is the
// gap between the two. Metrics: ns/task plus the reseat and spill counts
// that prove the elastic leg actually exercised the machinery.
func BenchmarkQueueGrow(b *testing.B) {
	const burst = 1000
	for _, cfg := range []struct {
		name     string
		growable bool
		capacity int
	}{
		// 64 slots, 3 doublings -> 512 max ring, so ~half the burst spills.
		{"elastic-64", true, 64},
		{"presized-1024", false, 1024},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			d := task.Desc{Payload: task.Args(42)}
			berr := w.Run(func(c *shmem.Ctx) error {
				q, err := NewQueue(c, Options{
					Capacity: cfg.capacity, PayloadCap: 24, Epochs: true, Growable: cfg.growable,
				})
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < burst; j++ {
						if err := q.Push(d); err != nil {
							return err
						}
					}
					for j := 0; j < burst; j++ {
						if _, ok, err := q.Pop(); err != nil || !ok {
							return fmt.Errorf("pop %d failed: %v", j, err)
						}
					}
				}
				b.StopTimer()
				st := q.Stats()
				b.ReportMetric(float64(st.Grows)/float64(b.N), "grows/op")
				b.ReportMetric(float64(st.Spilled)/float64(b.N), "spilled/op")
				if cfg.growable && st.Grows == 0 {
					return fmt.Errorf("elastic leg never grew (stats %+v)", st)
				}
				return nil
			})
			if berr != nil {
				b.Fatal(berr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/task")
		})
	}
}
