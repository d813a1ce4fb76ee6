package shmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sws/internal/trace"
)

// transports runs a subtest for every transport kind.
func transports(t *testing.T, f func(t *testing.T, kind TransportKind)) {
	t.Helper()
	kinds := []TransportKind{TransportLocal, TransportTCP}
	if ShmSupported() {
		kinds = append(kinds, TransportShm)
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

func run(t *testing.T, cfg Config, body func(*Ctx) error) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		run(t, Config{NumPEs: 2, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(64)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				msg := []byte("hello from PE zero!")
				if err := c.Put(1, addr, msg); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				got := make([]byte, 19)
				if err := c.Get(1, addr, got); err != nil { // self-get
					return err
				}
				if string(got) != "hello from PE zero!" {
					return fmt.Errorf("got %q", got)
				}
			}
			if c.Rank() == 0 {
				got := make([]byte, 19)
				if err := c.Get(1, addr, got); err != nil { // remote get
					return err
				}
				if string(got) != "hello from PE zero!" {
					return fmt.Errorf("remote got %q", got)
				}
			}
			return c.Barrier()
		})
	})
}

func TestFetchAdd(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const n = 4
		const each = 100
		run(t, Config{NumPEs: n, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(8)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// All PEs hammer PE 0's counter.
			for i := 0; i < each; i++ {
				if _, err := c.FetchAdd64(0, addr, 1); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			v, err := c.Load64(0, addr)
			if err != nil {
				return err
			}
			if v != n*each {
				return fmt.Errorf("counter = %d, want %d", v, n*each)
			}
			return nil
		})
	})
}

func TestFetchAddReturnsUniquePriors(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const n = 4
		const each = 50
		var seen [n * each]atomic.Bool
		run(t, Config{NumPEs: n, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(8)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for i := 0; i < each; i++ {
				prev, err := c.FetchAdd64(0, addr, 1)
				if err != nil {
					return err
				}
				if prev >= n*each {
					return fmt.Errorf("prior %d out of range", prev)
				}
				if seen[prev].Swap(true) {
					return fmt.Errorf("prior %d returned twice: fetch-add not atomic", prev)
				}
			}
			return nil
		})
	})
}

func TestSwapAndCompareSwap(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		run(t, Config{NumPEs: 2, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(8)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := c.Store64(1, addr, 42); err != nil {
					return err
				}
				// A compare-swap against the known value is a swap.
				old, err := c.CompareSwap64(1, addr, 42, 99)
				if err != nil {
					return err
				}
				if old != 42 {
					return fmt.Errorf("swap returned %d, want 42", old)
				}
				// Failed CAS returns current value, does not store.
				cur, err := c.CompareSwap64(1, addr, 1000, 7)
				if err != nil {
					return err
				}
				if cur != 99 {
					return fmt.Errorf("failed CAS returned %d, want 99", cur)
				}
				// Successful CAS returns the old value and stores.
				cur, err = c.CompareSwap64(1, addr, 99, 7)
				if err != nil {
					return err
				}
				if cur != 99 {
					return fmt.Errorf("successful CAS returned %d, want 99", cur)
				}
				v, err := c.Load64(1, addr)
				if err != nil {
					return err
				}
				if v != 7 {
					return fmt.Errorf("after CAS value = %d, want 7", v)
				}
			}
			return c.Barrier()
		})
	})
}

func TestNBIQuiet(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		run(t, Config{NumPEs: 2, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(8 * 16)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i := 0; i < 16; i++ {
					if err := c.Store64NBI(1, addr+Addr(8*i), uint64(i+1)); err != nil {
						return err
					}
				}
				for i := 0; i < 100; i++ {
					if err := c.Add64NBI(1, addr, 10); err != nil {
						return err
					}
				}
				if err := c.Quiet(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				v, err := c.Load64(1, addr)
				if err != nil {
					return err
				}
				if v != 1+100*10 {
					return fmt.Errorf("slot0 = %d, want 1001", v)
				}
				for i := 1; i < 16; i++ {
					v, err := c.Load64(1, addr+Addr(8*i))
					if err != nil {
						return err
					}
					if v != uint64(i+1) {
						return fmt.Errorf("slot%d = %d, want %d", i, v, i+1)
					}
				}
			}
			return c.Barrier()
		})
	})
}

func TestBoundsAndAlignmentErrors(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		w, err := NewWorld(Config{NumPEs: 2, HeapBytes: 128, Transport: kind})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Ctx) error {
			if c.Rank() != 0 {
				return nil
			}
			if err := c.Put(1, 120, make([]byte, 16)); err == nil {
				return fmt.Errorf("out-of-bounds put accepted")
			}
			if err := c.Get(1, 1<<40, make([]byte, 1)); err == nil {
				return fmt.Errorf("out-of-bounds get accepted")
			}
			if _, err := c.FetchAdd64(1, 4, 1); err == nil {
				return fmt.Errorf("unaligned fetch-add accepted")
			}
			if _, err := c.Load64(1, 128); err == nil {
				return fmt.Errorf("out-of-bounds atomic accepted")
			}
			if _, err := c.FetchAdd64(7, 0, 1); kind == TransportLocal && err == nil {
				return fmt.Errorf("bad rank accepted")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocSymmetricAndExhaustion(t *testing.T) {
	run(t, Config{NumPEs: 4, HeapBytes: 1024}, func(c *Ctx) error {
		a1, err := c.Alloc(10) // rounds to one line
		if err != nil {
			return err
		}
		a2, err := c.Alloc(LineSize + 8) // rounds to two
		if err != nil {
			return err
		}
		a3, err := c.Alloc(8)
		if err != nil {
			return err
		}
		// The first line is reserved for runtime internals; offsets are
		// symmetric past it, and every allocation owns whole lines.
		if a1 != reservedHeapBytes || a1%LineSize != 0 || a2 != a1+LineSize || a3 != a2+2*LineSize {
			return fmt.Errorf("alloc offsets %d, %d, %d; want %d and whole lines apart (1, then 2)", a1, a2, a3, reservedHeapBytes)
		}
		if _, err := c.Alloc(2000); err == nil {
			return fmt.Errorf("exhausted heap alloc accepted")
		}
		if _, err := c.Alloc(-1); err == nil {
			return fmt.Errorf("negative alloc accepted")
		}
		return nil
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const n = 8
		var phase atomic.Int64
		run(t, Config{NumPEs: n, Transport: kind}, func(c *Ctx) error {
			for round := 1; round <= 5; round++ {
				phase.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier every PE must observe all n increments.
				if got := phase.Load(); got < int64(round*n) {
					return fmt.Errorf("round %d: phase=%d, want >= %d", round, got, round*n)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func TestRunPropagatesBodyError(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("pe one gives up")
	err = w.Run(func(c *Ctx) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Other PEs block on a barrier that PE 1 never reaches; the world
		// must poison it rather than deadlock.
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("Run returned nil, want error")
	}
}

func TestRunRecoversPanic(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Ctx) error {
		if c.Rank() == 0 {
			panic("deliberate test panic")
		}
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("Run swallowed a PE panic")
	}
}

// A PE's own heap is memory: the window OwnWords/OwnBytes hand out is the
// same storage peers reach with one-sided ops, on every transport, and it
// is bounds- and alignment-checked once, where it is taken.
func TestOwnHeapWindow(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		run(t, Config{NumPEs: 2, HeapBytes: 1024, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(4 * WordSize)
			if err != nil {
				return err
			}
			words, err := c.OwnWords(addr, 4)
			if err != nil {
				return err
			}
			window, err := c.OwnBytes(addr, 4*WordSize)
			if err != nil {
				return err
			}
			peer := 1 - c.Rank()
			atomic.StoreUint64(&words[0], uint64(100+c.Rank()))
			if err := c.Barrier(); err != nil {
				return err
			}
			// The peer reads what this PE stored in place, and stores back.
			if v, err := c.Load64(peer, addr); err != nil || v != uint64(100+peer) {
				return fmt.Errorf("peer word = %d, %v; want %d", v, err, 100+peer)
			}
			if err := c.Store64(peer, addr+WordSize, uint64(200+c.Rank())); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if v := atomic.LoadUint64(&words[1]); v != uint64(200+peer) {
				return fmt.Errorf("own word after peer store = %d, want %d", v, 200+peer)
			}
			if got := binary.NativeEndian.Uint64(window[WordSize:]); got != uint64(200+peer) {
				return fmt.Errorf("byte window sees %d, want %d", got, 200+peer)
			}
			before := c.Counters().Snapshot()
			atomic.AddUint64(&words[2], 1)
			if d := c.Counters().Snapshot().Sub(before); d.Local != 0 || d.Total() != 0 {
				return fmt.Errorf("window access was counted as an op: %+v", d)
			}
			if _, err := c.OwnWords(addr+4, 1); err == nil {
				return fmt.Errorf("unaligned window accepted")
			}
			if _, err := c.OwnWords(1024-WordSize, 2); err == nil {
				return fmt.Errorf("out-of-bounds word window accepted")
			}
			if _, err := c.OwnBytes(1000, 25); err == nil {
				return fmt.Errorf("out-of-bounds byte window accepted")
			}
			return c.Barrier()
		})
	})
}

func TestCounters(t *testing.T) {
	run(t, Config{NumPEs: 2}, func(c *Ctx) error {
		addr, err := c.Alloc(64)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			before := c.Counters().Snapshot()
			if err := c.Put(1, addr, make([]byte, 10)); err != nil {
				return err
			}
			if err := c.Get(1, addr, make([]byte, 20)); err != nil {
				return err
			}
			if _, err := c.FetchAdd64(1, addr, 1); err != nil {
				return err
			}
			if err := c.Store64NBI(1, addr, 5); err != nil {
				return err
			}
			if _, err := c.FetchAdd64(0, addr, 1); err != nil { // self: not comm
				return err
			}
			d := c.Counters().Snapshot().Sub(before)
			if d.Of(OpPut) != 1 || d.Of(OpGet) != 1 || d.Of(OpFetchAdd) != 1 || d.Of(OpStoreNBI) != 1 {
				return fmt.Errorf("op counts wrong: %v", d)
			}
			if d.Total() != 4 || d.Blocking() != 3 || d.NonBlocking() != 1 {
				return fmt.Errorf("totals wrong: total=%d blocking=%d", d.Total(), d.Blocking())
			}
			if d.BytesPut != 10 || d.BytesGot != 20 {
				return fmt.Errorf("byte counts wrong: put=%d got=%d", d.BytesPut, d.BytesGot)
			}
			if d.Local != 1 {
				return fmt.Errorf("local count = %d, want 1", d.Local)
			}
		}
		return c.Barrier()
	})
}

func TestLatencyModelCharges(t *testing.T) {
	rtt := 200 * time.Microsecond
	run(t, Config{NumPEs: 2, Latency: LatencyModel{BlockingRTT: rtt}}, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			start := time.Now()
			const ops = 5
			for i := 0; i < ops; i++ {
				if _, err := c.FetchAdd64(1, addr, 1); err != nil {
					return err
				}
			}
			if el := time.Since(start); el < ops*rtt {
				return fmt.Errorf("5 blocking ops took %v, want >= %v", el, ops*rtt)
			}
			// Self-targeted ops are free.
			start = time.Now()
			for i := 0; i < 100; i++ {
				if _, err := c.FetchAdd64(0, addr, 1); err != nil {
					return err
				}
			}
			if el := time.Since(start); el > rtt {
				return fmt.Errorf("100 local ops took %v; latency charged locally?", el)
			}
		}
		return c.Barrier()
	})
}

func TestDelayFaultsStillComplete(t *testing.T) {
	fault := &DelayFaults{Fraction: 1.0, MaxDelay: 2 * time.Millisecond, Seed: 7}
	run(t, Config{NumPEs: 2, Fault: fault}, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				if err := c.Add64NBI(1, addr, 1); err != nil {
					return err
				}
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			v, err := c.Load64(1, addr)
			if err != nil {
				return err
			}
			if v != 20 {
				return fmt.Errorf("after quiet, counter=%d want 20: quiet returned before delayed ops applied", v)
			}
		}
		return c.Barrier()
	})
}

// dupAll asks for a duplicate of every operation, idempotent or not.
type dupAll struct{}

func (dupAll) Before(Op, int, int, Addr) Verdict { return Verdict{Duplicate: true} }

// A duplicate verdict may re-apply stores and puts — where a second
// delivery changes nothing — and must never re-apply an atomic, whatever
// the injector asks, on every heap kind and over the wire alike.
func TestDuplicateFaultsIdempotentStores(t *testing.T) {
	cases := []struct {
		name string
		op   func(c *Ctx, a Addr) error
		want uint64
	}{
		{"store-nbi", func(c *Ctx, a Addr) error { return c.Store64NBI(1, a, 77) }, 77},
		{"store", func(c *Ctx, a Addr) error { return c.Store64(1, a, 77) }, 77},
		{"add-nbi", func(c *Ctx, a Addr) error { return c.Add64NBI(1, a, 5) }, 5},
		{"fetch-add", func(c *Ctx, a Addr) error { _, err := c.FetchAdd64(1, a, 5); return err }, 5},
		{"compare-swap", func(c *Ctx, a Addr) error { _, err := c.CompareSwap64(1, a, 0, 9); return err }, 9},
	}
	for _, fault := range []FaultInjector{&DuplicateFaults{Fraction: 1.0, Seed: 3}, dupAll{}} {
		fault := fault
		transports(t, func(t *testing.T, kind TransportKind) {
			run(t, Config{NumPEs: 2, Transport: kind, Fault: fault}, func(c *Ctx) error {
				base, err := c.Alloc(len(cases) * WordSize)
				if err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					for i, tc := range cases {
						a := base + Addr(i*WordSize)
						if err := tc.op(c, a); err != nil {
							return fmt.Errorf("%s: %w", tc.name, err)
						}
						if err := c.Quiet(); err != nil {
							return err
						}
						if v, err := c.Load64(1, a); err != nil || v != tc.want {
							return fmt.Errorf("%s under a duplicate verdict left %d, %v; want %d", tc.name, v, err, tc.want)
						}
					}
				}
				return c.Barrier()
			})
		})
	}
}

// The victim side of a span-tagged op lands in the target's flight ring
// under the initiator's span, once, AFTER the op applied — for blocking
// ops and injections alike, on every heap kind and over the wire. The
// target watches its own ring while the initiator hammers a counter: a
// stamp that is visible before its add would read as ring > heap.
func TestVictimStampFollowsApply(t *testing.T) {
	const span, adds = 0xfeed, 2000
	transports(t, func(t *testing.T, kind TransportKind) {
		w, err := NewWorld(Config{NumPEs: 2, Transport: kind})
		if err != nil {
			t.Fatal(err)
		}
		ring := w.Ring(1)
		err = w.Run(func(c *Ctx) error {
			ctr, err := c.Alloc(2 * WordSize)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i := 0; i < adds; i++ {
					if _, err := c.WithSpan(span).FetchAdd64(1, ctr, 1); err != nil {
						return err
					}
				}
				// No public op carries a span on an add injection; the
				// descriptor does, and every back-end must deliver it.
				if _, _, err := c.do(&opReq{op: OpAddNBI, to: 1, addr: ctr + WordSize, v1: 1, span: span}); err != nil {
					return err
				}
				if err := c.Quiet(); err != nil {
					return err
				}
			} else {
				wait := c.NewWait(0)
				for {
					stamped := ring.Len()
					applied, err := c.Load64(1, ctr)
					if err != nil {
						return err
					}
					if uint64(stamped) > applied+1 { // +1: the add injection's stamp
						return fmt.Errorf("%d victim stamps visible with only %d adds applied", stamped, applied)
					}
					if applied == adds {
						break
					}
					wait.Poll()
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				byOp := map[Op]int{}
				for _, e := range ring.Events() {
					if e.Kind != trace.VictimOp || e.Span != span || e.B != 0 {
						return fmt.Errorf("unexpected event in the target's ring: %+v", e)
					}
					byOp[Op(e.A)]++
				}
				if byOp[OpFetchAdd] != adds || byOp[OpAddNBI] != 1 || len(byOp) != 2 {
					return fmt.Errorf("victim stamps by op = %v, want %d fetch-adds and 1 add injection", byOp, adds)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Property: put-then-get round-trips arbitrary payloads at arbitrary
// (valid) offsets, across the remote path.
func TestPutGetProperty(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const heap = 4096
		w, err := NewWorld(Config{NumPEs: 2, HeapBytes: heap, Transport: kind})
		if err != nil {
			t.Fatal(err)
		}
		type job struct {
			off  uint16
			data []byte
		}
		jobs := make(chan job)
		results := make(chan error)
		go func() {
			results <- w.Run(func(c *Ctx) error {
				if c.Rank() != 0 {
					return nil // PE 1 is a passive target
				}
				for j := range jobs {
					off := Addr(int(j.off) % (heap - 256))
					data := j.data
					if len(data) > 256 {
						data = data[:256]
					}
					if err := c.Put(1, off, data); err != nil {
						return err
					}
					got := make([]byte, len(data))
					if err := c.Get(1, off, got); err != nil {
						return err
					}
					if !bytes.Equal(got, data) {
						return fmt.Errorf("round-trip mismatch at %d len %d", off, len(data))
					}
				}
				return nil
			})
		}()
		f := func(off uint16, data []byte) bool {
			jobs <- job{off, data}
			return true
		}
		qerr := quick.Check(f, &quick.Config{MaxCount: 200})
		close(jobs)
		if err := <-results; err != nil {
			t.Fatal(err)
		}
		if qerr != nil {
			t.Fatal(qerr)
		}
	})
}
