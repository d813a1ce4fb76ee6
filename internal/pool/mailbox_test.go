package pool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
)

// Remote spawns must execute exactly once on the targeted PE's side of
// the world (modulo stealing), and the run must terminate cleanly.
func TestSpawnOnDelivers(t *testing.T) {
	const n = 200
	var ran [3]atomic.Int64
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("probe", func(tc *TaskCtx, payload []byte) error {
			ran[tc.Rank()].Add(1)
			return nil
		})
		p, err := New(c, reg, Config{Seed: 3})
		if err != nil {
			return err
		}
		// PE 0 seeds a driver task that remote-spawns onto PE 1 and PE 2.
		driver := reg.MustRegister("driver", func(tc *TaskCtx, payload []byte) error {
			for i := 0; i < n; i++ {
				if err := tc.SpawnOn(1+i%2, h, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if c.Rank() == 0 {
			if err := p.Add(driver, nil); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		s := p.Stats()
		if c.Rank() == 0 && s.RemoteSpawnsSent != n {
			return fmt.Errorf("sent %d remote spawns, want %d", s.RemoteSpawnsSent, n)
		}
		return nil
	})
	total := ran[0].Load() + ran[1].Load() + ran[2].Load()
	if total != n {
		t.Fatalf("probe tasks ran %d times, want %d", total, n)
	}
	// Remote targets must have received (not necessarily executed — steals
	// may rebalance) the work: at minimum some probes ran off rank 0, and
	// rank 0 only runs probes that were stolen back.
	if ran[1].Load()+ran[2].Load() == 0 {
		t.Error("no probe task ran on the targeted PEs")
	}
}

// SpawnOn to self must behave exactly like Spawn.
func TestSpawnOnSelf(t *testing.T) {
	var ran atomic.Int64
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("t", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		p, err := New(c, reg, Config{Seed: 3})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.SpawnOn(0, h, nil); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		if c.Rank() == 0 && p.Stats().RemoteSpawnsSent != 0 {
			return fmt.Errorf("self spawn counted as remote")
		}
		return nil
	})
	if ran.Load() != 1 {
		t.Fatalf("ran %d, want 1", ran.Load())
	}
}

func TestSpawnOnRangeError(t *testing.T) {
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("t", func(tc *TaskCtx, payload []byte) error { return nil })
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if err := p.SpawnOn(9, h, nil); err == nil {
			return fmt.Errorf("out-of-range SpawnOn accepted")
		}
		return p.Run()
	})
}

// The inbox ring must survive wrapping many times (more sends than slots):
// a power-of-two ring, one that is not, and a one-slot ring, where every
// send after the first needs a fresh credit.
func TestMailboxWraps(t *testing.T) {
	for _, slots := range []int{64, 3, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) { testMailboxWraps(t, slots) })
	}
}

func testMailboxWraps(t *testing.T, slots int) {
	const sends = 900
	var ran atomic.Int64
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("t", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		p, err := New(c, reg, Config{Seed: 1, MailboxSlots: slots})
		if err != nil {
			return err
		}
		driver := reg.MustRegister("driver", func(tc *TaskCtx, payload []byte) error {
			for i := 0; i < sends; i++ {
				if err := tc.SpawnOn(1, h, task.Args(uint64(i))); err != nil {
					return err
				}
			}
			return nil
		})
		if c.Rank() == 0 {
			if err := p.Add(driver, nil); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if ran.Load() != sends {
		t.Fatalf("ran %d, want %d", ran.Load(), sends)
	}
}

// TestMailboxMutualFullWait: two PEs whose task bodies spawn onto each other
// while both 2-slot inboxes are full make room for each other — a sender
// waiting for credit drains its own inbox — instead of both waiting out
// pushTimeout and failing a valid program with "inbox stayed full". The two
// roots meet before sending, so both senders are inside a body, past their
// rings' two free slots, at once.
func TestMailboxMutualFullWait(t *testing.T) {
	const rootFan, fan, depth = 8, 2, 2
	// Each root sends rootFan subtrees of depth `depth` with fan-out fan.
	const want = 2 * (1 + rootFan*(1+fan+fan*fan))
	for _, kind := range []shmem.TransportKind{shmem.TransportLocal, shmem.TransportShm} {
		t.Run(kind.String(), func(t *testing.T) {
			if kind == shmem.TransportShm && !shmem.ShmSupported() {
				t.Skip("shm transport unsupported on this platform")
			}
			var ran atomic.Int64
			var met atomic.Int32
			start := time.Now()
			runWorld(t, 2, kind, func(c *shmem.Ctx) error {
				reg := NewRegistry()
				other := 1 - c.Rank()
				var node task.Handle
				node = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
					ran.Add(1)
					args, err := task.ParseArgs(payload, 1)
					if err != nil || args[0] == 0 {
						return err
					}
					for i := 0; i < fan; i++ {
						if err := tc.SpawnOn(other, node, task.Args(args[0]-1)); err != nil {
							return err
						}
					}
					return nil
				})
				root := reg.MustRegister("root", func(tc *TaskCtx, _ []byte) error {
					ran.Add(1)
					met.Add(1)
					for deadline := time.Now().Add(5 * time.Second); met.Load() < 2; {
						if time.Now().After(deadline) {
							return fmt.Errorf("the other root never started")
						}
						runtime.Gosched()
					}
					for i := 0; i < rootFan; i++ {
						if err := tc.SpawnOn(other, node, task.Args(depth)); err != nil {
							return err
						}
					}
					return nil
				})
				p, err := New(c, reg, Config{Seed: 1, MailboxSlots: 2})
				if err != nil {
					return err
				}
				if err := p.Add(root, nil); err != nil {
					return err
				}
				return p.Run()
			})
			if n := ran.Load(); n != want {
				t.Errorf("ran %d tasks, want %d", n, want)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Errorf("mutual full-inbox sends took %v, want well under 2s", el)
			}
		})
	}
}

// Payload content must survive the mailbox round trip.
func TestMailboxPayloadIntegrity(t *testing.T) {
	const sends = 50
	var sum atomic.Uint64
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("acc", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 2)
			if err != nil {
				return err
			}
			if args[1] != args[0]*args[0] {
				return fmt.Errorf("payload corrupted: %v", args)
			}
			sum.Add(args[0])
			return nil
		})
		p, err := New(c, reg, Config{Seed: 1})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(1); i <= sends; i++ {
				if err := p.SpawnOn(1, h, task.Args(i, i*i)); err != nil {
					return err
				}
			}
		}
		return p.Run()
	})
	if want := uint64(sends * (sends + 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestRemoteSpawnComms is the remote spawn's count guard, exact on any box,
// with one row per way a spawn leaves its PE:
//
//   - seed: Pool.SpawnOn sends before it returns, so each is a batch of one:
//     one fetch-add and one put-signal;
//   - body: a task body's SpawnOns wait in the owner's outbox, and k of
//     them to one target, up to the outbox's cap of a ring's worth, cost one
//     fetch-add and one put-signal at the flush — two put-signals when the
//     batch wraps the ring's end.
//
// In both the sender fetches the receiver's cursor only when a batch's last
// ticket is a lap past its copy of it (counted exactly against a model of
// the copy), the receiver's drain issues no op at all — its side of the
// inbox is its own memory — and the whole send -> drain -> pop -> execute cycle allocates
// nothing. One goroutine drives both pools (PE 1 waits in a barrier), so
// the interleaving is fixed: the receiver drains every batch before the
// next, which means every credit refresh finds it caught up. A receiver
// that lags buys the sender fewer sends per refresh, and a full ring polls.
func TestRemoteSpawnComms(t *testing.T) {
	t.Run("seed", func(t *testing.T) { remoteSpawnComms(t, false) })
	t.Run("body", func(t *testing.T) { remoteSpawnComms(t, true) })
}

func remoteSpawnComms(t *testing.T, body bool) {
	const sends, beat = 10_000, 64
	receiver := make(chan *Pool, 1)
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		payload := make([]byte, 24)
		// spray is a task body that spawns its payload's count of leaves
		// onto PE 1.
		spray := reg.MustRegister("spray", func(tc *TaskCtx, args []byte) error {
			for i := uint16(0); i < binary.LittleEndian.Uint16(args); i++ {
				if err := tc.SpawnOn(1, h, payload); err != nil {
					return err
				}
			}
			return nil
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
		drainAndRun := func(want int) {
			if got, err := recv.mbox.drain(recv.push, recv.q.PushSlots); err != nil || got != want {
				t.Errorf("drained %d of %d, %v", got, want, err)
			}
			for i := 0; i < want; i++ {
				d, ok, err := recv.q.Pop()
				if err != nil || !ok || len(d.Payload) != len(payload) {
					t.Errorf("pop: ok=%v payload=%d err=%v", ok, len(d.Payload), err)
				}
				if err := recv.execute(recv.exec.workers[0], d); err != nil {
					t.Error(err)
				}
			}
		}
		// send delivers k spawns: k seeding SpawnOns, or one spray task run
		// by the owner and the flush of the owner's next iteration, which
		// finds nothing to run.
		arg := make([]byte, 2)
		send := func(k int) {
			if !body {
				for i := 0; i < k; i++ {
					if err := p.SpawnOn(1, h, payload); err != nil {
						t.Error(err)
					}
				}
				return
			}
			binary.LittleEndian.PutUint16(arg, uint16(k))
			if err := p.execute(p.exec.workers[0], task.Desc{Handle: spray, Payload: arg}); err != nil {
				t.Error(err)
			}
			if ran, err := p.stepExecuteLocal(new(time.Time)); ran || err != nil || p.mbox.outN != 0 {
				t.Errorf("idle step: ran=%v, %d spawns left unsent, %v", ran, p.mbox.outN, err)
			}
		}

		slots := uint64(defaultMailboxSlots)
		rng := rand.New(rand.NewSource(1))
		sent0, local0 := c.Counters().Snapshot(), recv.ctx.Counters().Snapshot().Local
		// known models the sender's copy of the read cursor: a batch whose
		// last ticket is a lap past it fetches the cursor, which the receiver
		// has caught up to the first of the k being sent.
		var tickets, batches, wraps, probes, known uint64
		batch := func(first, end uint64) {
			batches++
			if first%slots+(end-first) > slots {
				wraps++
			}
			if end-1-known >= slots {
				probes++
				known = tickets
			}
		}
		for tickets < sends {
			k := beat
			if body {
				k = 1 + rng.Intn(int(slots))
				batch(tickets, tickets+uint64(k))
			} else {
				for i := uint64(0); i < uint64(k); i++ {
					batch(tickets+i, tickets+i+1)
				}
			}
			send(k)
			drainAndRun(k)
			tickets += uint64(k)
		}
		sent := c.Counters().Snapshot().Sub(sent0)
		if sent.Of(shmem.OpFetchAdd) != batches || sent.Of(shmem.OpPutSignal) != batches+wraps {
			t.Errorf("%d remote spawns in %d batches (%d wrapping the ring) issued %v, want one fetch-add per batch and one put-signal per span",
				tickets, batches, wraps, sent)
		}
		if sent.Of(shmem.OpLoad) != probes || sent.Total() != 2*batches+wraps+probes {
			t.Errorf("%d remote spawns issued %v: want %d credit fetches and nothing else", tickets, sent, probes)
		}
		if local := recv.ctx.Counters().Snapshot().Local - local0; local != 0 {
			t.Errorf("the receiver issued %d self-targeted ops through Ctx.do draining %d tasks, want 0", local, tickets)
		}

		k := 1
		if body {
			k = 5
		}
		cycle := func() { send(k); drainAndRun(k) }
		if allocs := testing.AllocsPerRun(2*defaultMailboxSlots, cycle); allocs != 0 {
			t.Errorf("send -> drain -> pop -> execute allocates %.2f objects/op, want 0", allocs)
		}
		return c.Barrier()
	})
}

// TestInboxHeadSignals holds the batch protocol against a FIFO reference:
// batches of random size up to the outbox cap, a ring's worth, through rings of 1, 2, 3 and
// 64 slots for at least a dozen laps, drained in random pieces — a push
// that refuses stops a drain inside a batch, and the next resumes there.
// The owner reads a signal only at a batch boundary: every word inside a
// span is set to its own ticket, which would read as "no batch" and stall
// the reference if the owner took it for a head. A stale head at the
// boundary — at most the cursor — never passes, and a head whose span runs
// past the ring's end fails the drain typed.
func TestInboxHeadSignals(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 64} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) { inboxHeadSignals(t, slots) })
	}
}

func inboxHeadSignals(t *testing.T, slots int) {
	codec, err := task.NewCodec(8)
	if err != nil {
		t.Fatal(err)
	}
	errRefused := errors.New("push refused")
	boxes := make(chan *mailbox, 1)
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		m, err := newMailbox(c, codec, slots)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			boxes <- m
			return c.Barrier()
		}
		recv := <-boxes
		n := uint64(slots)
		rng := rand.New(rand.NewSource(int64(slots)))
		var next, want uint64 // the next ticket sent, the next the reference expects
		for next < max(12*n, 400) {
			k := uint64(1 + rng.Intn(slots))
			for i := uint64(0); i < k; i++ {
				if _, err := m.add(1, task.Desc{Payload: task.Args(next + i)}); err != nil {
					return err
				}
			}
			if got, err := m.flush(nil); err != nil || got != int(k) {
				return fmt.Errorf("flush sent %d of %d: %v", got, k, err)
			}
			for tk := next; tk < next+k; tk++ {
				if tk != next && tk%n != 0 { // not a span's head
					atomic.StoreUint64(&recv.signals[tk%n], tk)
				}
			}
			next += k
			for want < next {
				budget := 1 + rng.Intn(int(k))
				got, err := recv.drain(func(d task.Desc) error {
					if budget == 0 {
						return errRefused
					}
					budget--
					if v, err := task.ParseArgs(d.Payload, 1); err != nil || v[0] != want {
						return fmt.Errorf("drained task %v, want %d (%v)", v, want, err)
					}
					want++
					return nil
				}, nil)
				if got == 0 || (err != nil && !errors.Is(err, errRefused)) {
					return fmt.Errorf("drain at ticket %d of %d: %d delivered, %v", want, next, got, err)
				}
			}
			// Caught up: the boundary word is a stale head, at most the cursor.
			atomic.StoreUint64(&recv.signals[recv.readSlot], recv.readCursor)
			if got, err := recv.drain(func(task.Desc) error { return errRefused }, nil); got != 0 || err != nil {
				return fmt.Errorf("a stale head at ticket %d passed: %d delivered, %v", want, got, err)
			}
		}
		left := uint64(slots - recv.readSlot)
		atomic.StoreUint64(&recv.signals[recv.readSlot], recv.readCursor+left+1)
		if _, err := recv.drain(func(task.Desc) error { return nil }, nil); !errors.Is(err, errCorruptInbox) {
			return fmt.Errorf("a head spanning %d slots with %d left drained with %v, want a corrupt-slot error", left+1, left, err)
		}
		return c.Barrier()
	})
}

// TestInboxBatchLandsInOneCopy: the owner's drain hands each contiguous
// span of a batch to its split queue still encoded (wsq.Queue.PushSlots),
// one copy where a decode, an encode and a push per task were, and the
// tasks land as those pushes would have put them: in ticket order, popped
// LIFO. A batch that wraps the inbox ring's end is two spans; one that
// wraps the queue ring's end is one span, copied in two pieces. A
// non-empty private deque, or a ring without room for the whole span,
// takes the per-task path, the second spilling into the deque as pushes
// do; and a slot whose length word exceeds the payload cap fails the drain
// typed, after the slots before it landed one by one, as before. An 8-slot
// inbox and an 8-slot queue ring, on both protocols.
func TestInboxBatchLandsInOneCopy(t *testing.T) {
	for _, proto := range []Protocol{SWS, SDC} {
		t.Run(proto.String(), func(t *testing.T) { inboxBatchLandsInOneCopy(t, proto) })
	}
}

func inboxBatchLandsInOneCopy(t *testing.T, proto Protocol) {
	receiver := make(chan *Pool, 1)
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("t", func(*TaskCtx, []byte) error { return nil })
		p, err := New(c, reg, Config{Protocol: proto, QueueCapacity: 8, MailboxSlots: 8})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			receiver <- p
			return c.Barrier()
		}
		recv := <-receiver
		calls := map[string]int{}
		recv.q = &watchedQueue{Queue: recv.q, touch: func(op string) { calls[op]++ }}
		desc := func(v uint64) task.Desc { return task.Desc{Handle: h, Payload: task.Args(v)} }
		// send delivers tickets' worth of tasks valued from..from+n-1 to
		// PE 1 as one batch.
		send := func(from, n uint64) error {
			for v := from; v < from+n; v++ {
				if _, err := p.mbox.add(1, desc(v)); err != nil {
					return err
				}
			}
			_, err := p.mbox.flush(nil)
			return err
		}
		local := func(vals ...uint64) error {
			for _, v := range vals {
				if err := recv.push(desc(v)); err != nil {
					return err
				}
			}
			return nil
		}
		// drain runs the receiver's inbox step and reports the queue calls
		// it made and the tasks it delivered.
		drain := func() (string, error) {
			clear(calls)
			recv0 := recv.bk.remoteRecv.Load()
			_, err := recv.stepDrainInbox()
			return fmt.Sprintf("PushSlots %d Push %d got %d", calls["PushSlots"], calls["Push"], recv.bk.remoteRecv.Load()-recv0), err
		}
		popAll := func() ([]uint64, error) {
			var got []uint64
			for {
				d, ok, err := recv.popOwned()
				if err != nil || !ok {
					return got, err
				}
				v, err := task.ParseArgs(d.Payload, 1)
				if err != nil {
					return got, err
				}
				got = append(got, v[0])
			}
		}
		for _, row := range []struct {
			name        string
			before      func() error // receiver state before the batch lands
			from, n     uint64
			calls, pops string
		}{
			// Tickets 0-4 into slots 0-4, then 5-10 into slots 5-7 and 0-2.
			{"fits", nil, 0, 5, "PushSlots 1 Push 0 got 5", "[4 3 2 1 0]"},
			{"inbox-wrap", nil, 5, 6, "PushSlots 2 Push 0 got 6", "[10 9 8 7 6 5]"},
			// The queue's slots 0-2 are stolen and reclaimed and 3-6 hold
			// tasks, so slots 3-6 of the inbox land in the queue's 7, 0, 1, 2.
			{"queue-wrap", func() error { return freeQueueHead(p, recv, local) }, 11, 4,
				"PushSlots 1 Push 0 got 4", "[14 13 12 11 109 108 107 106]"},
			{"deque", func() error { return recv.exec.workers[0].dq.push(desc(200)) }, 15, 3,
				"PushSlots 0 Push 0 got 3", "[17 16 15 200]"},
			// Six held leave two free slots: two tasks fit, the third finds
			// the ring full and spills, and the fourth follows it.
			{"full", func() error { return local(300, 301, 302, 303, 304, 305) }, 18, 4,
				"PushSlots 1 Push 3 got 4", "[21 20 19 18 305 304 303 302 301 300]"},
		} {
			if row.before != nil {
				if err := row.before(); err != nil {
					return fmt.Errorf("%s: %w", row.name, err)
				}
			}
			if err := send(row.from, row.n); err != nil {
				return fmt.Errorf("%s: %w", row.name, err)
			}
			got, err := drain()
			if err != nil || got != row.calls {
				return fmt.Errorf("%s: drain made %s (%v), want %s", row.name, got, err, row.calls)
			}
			if pops, err := popAll(); err != nil || fmt.Sprint(pops) != row.pops {
				return fmt.Errorf("%s: popped %v (%v), want %s", row.name, pops, err, row.pops)
			}
		}
		// Tickets 22-24 go to slots 6, 7 and 0; slot 7 claims a payload
		// past the cap.
		if err := send(22, 3); err != nil {
			return err
		}
		slot := recv.mbox.data[7*recv.mbox.slotSize:]
		binary.LittleEndian.PutUint32(slot[4:], uint32(recv.cfg.PayloadCap+1))
		clear(calls)
		got, err := recv.mbox.drain(recv.push, recv.q.PushSlots)
		if !errors.Is(err, errCorruptInbox) || got != 1 || calls["PushSlots"] != 0 || calls["Push"] != 1 {
			return fmt.Errorf("corrupt slot: drain delivered %d with %v through queue calls %v, want the slot before it pushed and a corrupt-slot error", got, err, calls)
		}
		return c.Barrier()
	})
}

// freeQueueHead leaves recv's 8-slot queue with its head at slot 7 and
// room for four more: six tasks pushed, the oldest three released and
// stolen by p, the newest three popped, the stolen space reclaimed, four
// more (106-109) pushed.
func freeQueueHead(p, recv *Pool, local func(...uint64) error) error {
	if err := local(100, 101, 102, 103, 104, 105); err != nil {
		return err
	}
	if moved, err := recv.q.Release(); moved != 3 || err != nil {
		return fmt.Errorf("released %d, want 3: %v", moved, err)
	}
	for stolen, tries := 0, 0; stolen < 3; tries++ {
		ds, _, err := p.q.Steal(1)
		if err != nil || tries == 16 {
			return fmt.Errorf("stole %d of 3 in %d tries: %v", stolen, tries, err)
		}
		stolen += len(ds)
	}
	for range 3 {
		if _, ok, err := recv.popOwned(); !ok || err != nil {
			return fmt.Errorf("pop: %v, %v", ok, err)
		}
	}
	if _, err := recv.q.Acquire(); err != nil {
		return err
	}
	if err := recv.q.Progress(); err != nil {
		return err
	}
	return local(106, 107, 108, 109)
}

// TestOutboxTargetSwitch: the owner keeps one outbox, so a body's spawn to
// a target other than the one the outbox holds sends what it holds first.
// A run of spawns to one target is one batch; a sender that switches
// targets on every spawn pays a batch of one per spawn, the single send.
func TestOutboxTargetSwitch(t *testing.T) {
	targets := []int{1, 1, 2, 2, 2, 1, 2, 1}
	const batches = 5 // 1 1 | 2 2 2 | 1 | 2 | 1
	receivers := make(chan *Pool, 2)
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
		spray := reg.MustRegister("spray", func(tc *TaskCtx, _ []byte) error {
			for i, pe := range targets {
				if err := tc.SpawnOn(pe, leaf, task.Args(uint64(i))); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			receivers <- p
			return c.Barrier()
		}
		recv := map[int]*Pool{}
		for range 2 {
			r := <-receivers
			recv[r.ctx.Rank()] = r
		}
		sent0 := c.Counters().Snapshot()
		if err := p.execute(p.exec.workers[0], task.Desc{Handle: spray}); err != nil {
			return err
		}
		if p.mbox.outN != 1 || p.mbox.outPE != 1 {
			return fmt.Errorf("after the body the outbox holds %d for PE %d, want the last spawn's 1 for PE 1", p.mbox.outN, p.mbox.outPE)
		}
		if ran, err := p.stepExecuteLocal(new(time.Time)); ran || err != nil {
			return fmt.Errorf("idle step: ran=%v, %v", ran, err)
		}
		if sent := c.Counters().Snapshot().Sub(sent0); sent.Of(shmem.OpFetchAdd) != batches || sent.Of(shmem.OpPutSignal) != batches {
			return fmt.Errorf("%d spawns in %d runs of one target issued %v, want one fetch-add and one put-signal per run", len(targets), batches, sent)
		}
		for pe, r := range recv {
			var got []uint64
			if _, err := r.mbox.drain(func(d task.Desc) error {
				v, err := task.ParseArgs(d.Payload, 1)
				got = append(got, v...)
				return err
			}, nil); err != nil {
				return err
			}
			var want []uint64
			for i, to := range targets {
				if to == pe {
					want = append(want, uint64(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("PE %d drained spawns %v, want %v", pe, got, want)
			}
		}
		return c.Barrier()
	})
}

// TestRemoteSpawnDeliveryBound: a body's remote spawn waits in the outbox at
// most until the sender's stepProgress beat, 64 iterations, however much
// local work the sender has (beat, under the sim); a sender with nothing
// left to run flushes in its next iteration, the first that finds the
// queue empty, before it acquires, searches or probes (idle); and a batch
// that has landed waits in the receiver's inbox for at most 64 of the
// receiver's tasks, its beat, however much local work the receiver has
// (receiver, under the sim). A receiver with none drains in its next pass:
// a pass that finds no local work is never a busy one.
func TestRemoteSpawnDeliveryBound(t *testing.T) {
	t.Run("beat", func(t *testing.T) {
		const siblings = 400
		var onZero, waited atomic.Int64 // siblings PE 0 ran, those while the spawn waited
		var ran atomic.Bool
		w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20,
			Transport: shmem.TransportSim, Sim: shmem.SimOptions{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *shmem.Ctx) error {
			reg := NewRegistry()
			sib := reg.MustRegister("sibling", func(tc *TaskCtx, _ []byte) error {
				if tc.Rank() == 0 {
					onZero.Add(1)
					if tc.p.mbox.outN != 0 {
						waited.Add(1)
					}
				}
				return nil
			})
			remote := reg.MustRegister("remote", func(*TaskCtx, []byte) error {
				ran.Store(true)
				return nil
			})
			driver := reg.MustRegister("driver", func(tc *TaskCtx, _ []byte) error {
				if err := tc.SpawnOn(1, remote, nil); err != nil {
					return err
				}
				for i := 0; i < siblings; i++ {
					if err := tc.Spawn(sib, nil); err != nil {
						return err
					}
				}
				return nil
			})
			p, err := New(c, reg, Config{Seed: 1})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := p.Add(driver, nil); err != nil {
					return err
				}
			}
			return p.Run()
		})
		if err != nil {
			t.Fatal(err)
		}
		// A sibling is a pass: between two of PE 0's beats it runs at most
		// 63 of them.
		if n := waited.Load(); !ran.Load() || n >= 64 {
			t.Errorf("PE 0 ran %d siblings while its remote spawn waited in the outbox (ran: %v), want fewer than 64", n, ran.Load())
		}
		if n := onZero.Load(); n < 128 {
			t.Errorf("PE 0 ran only %d siblings: the bound was never tested", n)
		}
	})
	t.Run("receiver", func(t *testing.T) {
		const siblings = 400
		var onOne, waited atomic.Int64 // siblings PE 1 ran, those while a landed batch waited
		var ran atomic.Bool
		w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20,
			Transport: shmem.TransportSim, Sim: shmem.SimOptions{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *shmem.Ctx) error {
			reg := NewRegistry()
			sib := reg.MustRegister("sibling", func(tc *TaskCtx, _ []byte) error {
				if m := tc.p.mbox; tc.Rank() == 1 {
					onOne.Add(1)
					if atomic.LoadUint64(&m.signals[m.readSlot]) > m.readCursor {
						waited.Add(1) // a head is ready at the read cursor
					}
				}
				return nil
			})
			remote := reg.MustRegister("remote", func(*TaskCtx, []byte) error {
				ran.Store(true)
				return nil
			})
			root := reg.MustRegister("root", func(tc *TaskCtx, _ []byte) error {
				for i := 0; i < siblings; i++ {
					if err := tc.Spawn(sib, nil); err != nil {
						return err
					}
				}
				return nil
			})
			driver := reg.MustRegister("driver", func(tc *TaskCtx, _ []byte) error { return tc.SpawnOn(1, remote, nil) })
			p, err := New(c, reg, Config{Seed: 1})
			if err != nil {
				return err
			}
			seed := driver
			if c.Rank() == 1 {
				seed = root
			}
			if err := p.Add(seed, nil); err != nil {
				return err
			}
			return p.Run()
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := waited.Load(); !ran.Load() || n == 0 || n >= 64 {
			t.Errorf("PE 1 ran %d siblings while a landed batch waited in its inbox (ran: %v), want 1..63", n, ran.Load())
		}
		if n := onOne.Load(); n < 128 {
			t.Errorf("PE 1 ran only %d siblings: the bound was never tested", n)
		}
	})
	t.Run("idle", func(t *testing.T) {
		receiver := make(chan *Pool, 1)
		runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
			reg := NewRegistry()
			leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
			hop := reg.MustRegister("hop", func(tc *TaskCtx, _ []byte) error { return tc.SpawnOn(1, leaf, nil) })
			p, err := New(c, reg, Config{})
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				receiver <- p
				return c.Barrier()
			}
			recv := <-receiver
			if err := p.Add(hop, nil); err != nil {
				return err
			}
			if ran, err := p.stepExecuteLocal(new(time.Time)); !ran || err != nil {
				return fmt.Errorf("the hop did not run: %v", err)
			}
			if got, err := recv.mbox.drain(recv.push, recv.q.PushSlots); p.mbox.outN != 1 || got != 0 || err != nil {
				return fmt.Errorf("the hop's spawn went out inside its body: %d buffered, %d delivered, %v", p.mbox.outN, got, err)
			}
			if ran, err := p.stepExecuteLocal(new(time.Time)); ran || err != nil {
				return fmt.Errorf("idle step: ran=%v, %v", ran, err)
			}
			if got, err := recv.mbox.drain(recv.push, recv.q.PushSlots); got != 1 || err != nil {
				return fmt.Errorf("the sender's idle step delivered %d of 1, %v", got, err)
			}
			return c.Barrier()
		})
	})
}

// TestRemoteSpawnFlushFailsTyped: a batch whose target is unreachable fails
// the run with the transport's typed cause and names the target and the
// batch size — whether the sender flushes it at its next idle iteration,
// inside the body when the outbox fills (the body's SpawnOn returns it), or
// at once from seeding code. Nothing hangs and nothing is lost silently.
func TestRemoteSpawnFlushFailsTyped(t *testing.T) {
	for _, row := range []struct {
		name string
		k    int
		seed bool
	}{{"idle", 5, false}, {"full", defaultMailboxSlots, false}, {"seed", 1, true}} {
		t.Run(row.name, func(t *testing.T) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20, Fault: partitionFrom(0)})
			if err != nil {
				t.Fatal(err)
			}
			var senderErr error
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *shmem.Ctx) error {
					reg := NewRegistry()
					leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
					spray := reg.MustRegister("spray", func(tc *TaskCtx, _ []byte) error {
						for i := 0; i < row.k; i++ {
							if err := tc.SpawnOn(1, leaf, nil); err != nil {
								return err
							}
						}
						return nil
					})
					p, err := New(c, reg, Config{Seed: 1})
					if err != nil {
						return err
					}
					if c.Rank() != 0 {
						return p.Run()
					}
					if row.seed {
						senderErr = p.SpawnOn(1, leaf, nil)
						return senderErr
					}
					if err := p.Add(spray, nil); err != nil {
						return err
					}
					senderErr = p.Run()
					return senderErr
				})
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("the run hung after a failed remote-spawn flush")
			}
			want := fmt.Sprintf("batch of %d to PE 1", row.k)
			if !errors.Is(senderErr, shmem.ErrPartitioned) || !strings.Contains(fmt.Sprint(senderErr), want) {
				t.Fatalf("sender's run ended with %v, want ErrPartitioned naming %q", senderErr, want)
			}
		})
	}
}

// TestDrainingTargetFlushFailsTyped: a batch that fails against a target
// which is draining, not dead, is the run's failure, as against any live
// target. The leaf is spawned while PE 1 is a member, PE 1 begins to drain
// before the flush, and every ticket claim (unclaimed: the fetch-add might
// have applied) or every put-with-signal (claimed) is dropped. Landing such
// a batch home could leave a hole in a live inbox's ticket order; writing
// it off would lose it with no dead rank to account for it. Either ends in
// a hang, so the sender must fail with ErrDropped naming the batch.
func TestDrainingTargetFlushFailsTyped(t *testing.T) {
	for _, op := range []shmem.Op{shmem.OpFetchAdd, shmem.OpPutSignal} {
		t.Run(op.String(), func(t *testing.T) {
			var ticketAddr atomic.Uint64
			drop := &shmem.DropFaults{Fraction: 1, Ops: []shmem.Op{op},
				Match: func(op shmem.Op, from, to int, addr shmem.Addr) bool {
					return op == shmem.OpPutSignal || uint64(addr) == ticketAddr.Load()
				}}
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20, Fault: drop})
			if err != nil {
				t.Fatal(err)
			}
			var senderErr error
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *shmem.Ctx) error {
					reg := NewRegistry()
					leaf := reg.MustRegister("leaf", func(*TaskCtx, []byte) error { return nil })
					root := reg.MustRegister("root", func(tc *TaskCtx, _ []byte) error {
						if err := tc.SpawnOn(1, leaf, nil); err != nil {
							return err
						}
						return w.Live().BeginDrain(1)
					})
					p, err := New(c, reg, Config{Seed: 1})
					if err != nil {
						return err
					}
					if c.Rank() != 0 {
						return p.Run()
					}
					ticketAddr.Store(uint64(p.mbox.writeAddr))
					if err := p.Add(root, nil); err != nil {
						return err
					}
					senderErr = p.Run()
					return senderErr
				})
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("the run hung after a failed flush to a draining target")
			}
			if !errors.Is(senderErr, shmem.ErrDropped) || !strings.Contains(fmt.Sprint(senderErr), "batch of 1 to PE 1") {
				t.Fatalf("sender's run ended with %v, want ErrDropped naming the batch", senderErr)
			}
			if drop.Dropped() == 0 {
				t.Fatal("no operation was dropped: the fault missed the flush")
			}
		})
	}
}
