package shmem

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sws/internal/trace"
)

// unwindWhenKilled parks a crash-injected PE's body until the injection
// surfaces through Ctx.Err, then returns the error (which Run tolerates).
func unwindWhenKilled(c *Ctx) error {
	wait := c.NewWait(0)
	for {
		if err := c.Err(); err != nil {
			return err
		}
		wait.Poll()
	}
}

// TestKillUnwindsSurvivors crash-injects one PE of an in-process world and
// requires every blocked collective and wait on the survivors to unwind
// with an error naming the dead peer — no hangs, no generic failures.
func TestKillUnwindsSurvivors(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		w, err := NewWorld(Config{
			NumPEs:    3,
			Transport: kind,
			DeadAfter: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Ctx) error {
			flag, err := c.Alloc(WordSize)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			switch c.Rank() {
			case 1:
				return unwindWhenKilled(c)
			case 0:
				w.Kill(1)
				// The dead member can never arrive: the barrier must unwind
				// with the named error once the detector declares it dead.
				if err := c.Barrier(); !errors.Is(err, ErrPeerDead) {
					return fmt.Errorf("barrier after kill: got %v, want ErrPeerDead", err)
				}
				// Same for a local wait on a word only the dead PE would flip.
				if _, err := c.WaitUntil64(flag, CmpEQ, 1, time.Second); !errors.Is(err, ErrPeerDead) {
					return fmt.Errorf("WaitUntil64 after kill: got %v, want ErrPeerDead", err)
				}
				return nil
			default:
				if err := c.Barrier(); !errors.Is(err, ErrPeerDead) {
					return fmt.Errorf("barrier after kill: got %v, want ErrPeerDead", err)
				}
				return nil
			}
		})
		// The killed PE's own unwind is reported but must be the only error.
		if !errors.Is(err, ErrPEKilled) {
			t.Fatalf("Run: got %v, want error wrapping ErrPEKilled", err)
		}
		if errors.Is(err, ErrPeerDead) {
			t.Fatalf("a survivor leaked its unwind error: %v", err)
		}
	})
}

// TestKilledPeerOpsFailFast checks the per-op liveness gate: operations
// against a crash-injected peer fail with ErrOpTimeout before the detector
// declares it dead, with ErrPeerDead after, and both errors carry the op
// kind and initiator→target ranks.
func TestKilledPeerOpsFailFast(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		w, err := NewWorld(Config{
			NumPEs:    2,
			Transport: kind,
			DeadAfter: time.Hour, // declaration only via explicit MarkDead below
		})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Ctx) error {
			if c.Rank() == 1 {
				return unwindWhenKilled(c)
			}
			w.Kill(1)
			if _, err := c.Load64(1, 0); !errors.Is(err, ErrOpTimeout) {
				return fmt.Errorf("Load64 against killed peer: got %v, want ErrOpTimeout", err)
			}
			w.Live().MarkDead(1)
			_, lerr := c.Load64(1, 0)
			if !errors.Is(lerr, ErrPeerDead) {
				return fmt.Errorf("Load64 against dead peer: got %v, want ErrPeerDead", lerr)
			}
			if !strings.Contains(lerr.Error(), "0→1") {
				return fmt.Errorf("op error %q does not name initiator→target", lerr)
			}
			if !strings.Contains(lerr.Error(), OpLoad.String()) {
				return fmt.Errorf("op error %q does not name the op kind", lerr)
			}
			return nil
		})
		if !errors.Is(err, ErrPEKilled) {
			t.Fatalf("Run: got %v, want error wrapping ErrPEKilled", err)
		}
	})
}

// TestTCPRefusedDialIsOpTimeout: a peer process that crashed takes its
// listener with it, so until the failure detector declares it dead every
// dial to it is refused. A blocking op against it fails with ErrOpTimeout, as against any other peer that does not answer — the
// error on which a thief moves on to another victim — not an untyped one
// that fails the caller's run.
func TestTCPRefusedDialIsOpTimeout(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP, DeadAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.transport.(*tcpTransport).addrs[1] = gone.Addr().String()
	gone.Close()
	err = w.Run(func(c *Ctx) error {
		if c.Rank() == 1 {
			return nil
		}
		_, err := c.Load64(1, 0)
		if !errors.Is(err, ErrOpTimeout) || !strings.Contains(err.Error(), "refused") {
			return fmt.Errorf("Load64 from a peer refusing every dial: got %v, want ErrOpTimeout naming the refusal", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPRefusedDialIsFinal: a refused dial ends the op's attempt as
// final. Nothing reached the peer, and its listener is gone until the
// detector rules; the retry back-off (1.5–3 ms) would only hold the caller
// (a thief that drew a crashed victim) on every such draw.
func TestTCPRefusedDialIsFinal(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP, DeadAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tt := w.transport.(*tcpTransport)
	tt.addrs[1] = gone.Addr().String()
	gone.Close()
	err = w.Run(func(c *Ctx) error {
		if c.Rank() == 1 {
			return nil
		}
		conn, err := tt.conn(0, 1)
		if err != nil {
			return err
		}
		_, _, final, err := tt.attempt(conn, &opReq{op: OpLoad, from: 0, to: 1}, nil, nil)
		if err == nil || !final {
			return fmt.Errorf("attempt against a refused dial: final=%v err=%v, want a final error", final, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeapBarrierTimeoutNamedError drives the distributed barrier directly
// into its deadline and requires the named timeout error, not a hang or a
// generic failure.
func TestHeapBarrierTimeoutNamedError(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-member barrier over a 1-PE world: the second member never
	// arrives, so wait must expire.
	b := newBarrier(w, 0, 2)
	b.timeout = 30 * time.Millisecond
	start := time.Now()
	werr := b.wait()
	if !errors.Is(werr, ErrBarrierTimeout) {
		t.Fatalf("heapBarrier.wait: got %v, want ErrBarrierTimeout", werr)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("barrier timeout took %v, want ~30ms", el)
	}
}

// simKillWorld builds a sim world with explicit (virtual-time) detector
// windows small enough to fit the default virtual-time budget.
func simKillWorld(t *testing.T, numPEs int, seed int64, kills []SimKill, log *bytes.Buffer) *World {
	t.Helper()
	opts := SimOptions{Seed: seed, MaxVirtualTime: 2 * time.Second, Kill: kills}
	if log != nil {
		opts.Log = log
	}
	w, err := NewWorld(Config{
		NumPEs:    numPEs,
		HeapBytes: 1 << 16,
		Transport: TransportSim,
		DeadAfter: 500 * time.Microsecond,
		Sim:       opts,
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

// simKillBody churns remote atomics until either this PE is killed (unwind
// with the tolerated error) or a peer's death is detected (survivors stop).
func simKillBody(c *Ctx) error {
	n := c.NumPEs()
	me := c.Rank()
	counter := c.MustAlloc(WordSize)
	if err := c.Barrier(); err != nil {
		return err
	}
	wait := c.NewWait(0)
	for i := 0; ; i++ {
		if err := c.Err(); err != nil {
			return err
		}
		if c.Liveness().AnyDead() {
			return nil
		}
		if _, err := c.FetchAdd64((me+i)%n, counter, 1); err != nil {
			if errors.Is(err, ErrPeerDead) || errors.Is(err, ErrOpTimeout) {
				wait.Poll()
				continue
			}
			return err
		}
		wait.Poll()
	}
}

func runSimKill(t *testing.T, seed int64, kills []SimKill) []byte {
	t.Helper()
	var log bytes.Buffer
	w := simKillWorld(t, 4, seed, kills, &log)
	err := w.Run(simKillBody)
	if len(kills) > 0 {
		if !errors.Is(err, ErrPEKilled) {
			t.Fatalf("seed %d: got %v, want error wrapping ErrPEKilled", seed, err)
		}
	} else if err != nil {
		t.Fatalf("seed %d fault-free: %v", seed, err)
	}
	return log.Bytes()
}

// TestSimKillDeterministicReplay: the same seed and kill schedule must
// produce a byte-identical event log — crash injection is part of the
// deterministic schedule, not a source of nondeterminism.
func TestSimKillDeterministicReplay(t *testing.T) {
	kills := []SimKill{{Rank: 1, At: 300 * time.Microsecond}}
	a := runSimKill(t, 7, kills)
	b := runSimKill(t, 7, kills)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed+kill schedule produced different logs (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("event log is empty")
	}
	c := runSimKill(t, 7, []SimKill{{Rank: 2, At: 400 * time.Microsecond}})
	if bytes.Equal(a, c) {
		t.Fatal("different kill schedules produced identical logs")
	}
}

// TestLivenessInertWhenFaultFree: configuring the failure detector must not
// perturb a fault-free sim schedule — the liveness layer stays invisible
// until the first failure event.
func TestLivenessInertWhenFaultFree(t *testing.T) {
	run := func(tuned bool) []byte {
		var log bytes.Buffer
		cfg := Config{
			NumPEs:    4,
			HeapBytes: 1 << 16,
			Transport: TransportSim,
			Sim:       SimOptions{Seed: 42, MaxVirtualTime: 2 * time.Second, Log: &log},
		}
		if tuned {
			cfg.DeadAfter = 456 * time.Microsecond
			cfg.OpTimeout = time.Second
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(simChurn); err != nil {
			t.Fatal(err)
		}
		return log.Bytes()
	}
	base := run(false)
	tuned := run(true)
	if !bytes.Equal(base, tuned) {
		t.Fatalf("failure-detector tuning perturbed a fault-free schedule (%d vs %d bytes)", len(base), len(tuned))
	}
}

// runJoined runs body on n ranks that each Join one world over kind from
// this process, as n processes would.
func runJoined(t *testing.T, kind TransportKind, n int, deadAfter time.Duration, body func(w *World, c *Ctx) error) {
	t.Helper()
	cfg := Config{NumPEs: n, HeapBytes: 1 << 16, Transport: kind, DeadAfter: deadAfter}
	at := Endpoint{Coordinator: freeAddr(t)}
	if kind == TransportShm {
		requireShm(t)
		at = Endpoint{Segment: filepath.Join(t.TempDir(), ShmSegmentName())}
		seg, err := CreateShmSegment(at.Segment, n, cfg.HeapBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := at
			at.Rank = rank
			w, err := Join(cfg, at)
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = w.Run(func(c *Ctx) error { return body(w, c) })
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// A PE whose body returns cleanly on a joined world says so in its state
// word before its beats stop: peers that run on for three DeadAfter horizons
// read it as exited and never journal it dead, over tcp (its service
// answers two more probe periods) and shm (the word stays in the segment).
// CI repeats it 20 times under -race: where the exit falls between the
// peers' probe ticks differs from run to run.
func TestExitedPeerIsNotDeclaredDead(t *testing.T) {
	for _, kind := range []TransportKind{TransportTCP, TransportShm} {
		t.Run(kind.String(), func(t *testing.T) {
			const n, deadAfter = 3, 200 * time.Millisecond
			runJoined(t, kind, n, deadAfter, func(w *World, c *Ctx) error {
				rank := c.Rank()
				if err := c.Barrier(); err != nil || rank == n-1 {
					return err
				}
				time.Sleep(3 * deadAfter)
				if s := w.Live().State(n - 1); s != PeerExited {
					return fmt.Errorf("rank %d reads rank %d as %v, want exited", rank, n-1, s)
				}
				for _, e := range w.Ring(rank).Events() {
					if e.Kind == trace.PeerState && PeerState(e.B) == PeerDead {
						return fmt.Errorf("rank %d journaled rank %d dead", rank, e.A)
					}
				}
				return nil
			})
		})
	}
}

// Every process of a joined world names the same termination leader at
// every instant: the rule reads deaths, not the membership mirror, so once
// rank 0 drains and parks in its own process, that process and the others
// (whose mirrors still read it alive until the next probe tick, and parked
// after it) all name rank 0. DeadAfter is long enough that no tick lands
// between the park and the first check. CI repeats it 20 times under
// -race: which process reads its mirror first after the park differs from
// run to run.
func TestJoinedWorldAgreesOnLeader(t *testing.T) {
	for _, kind := range []TransportKind{TransportTCP, TransportShm} {
		t.Run(kind.String(), func(t *testing.T) {
			const n, deadAfter = 3, 10 * time.Second
			runJoined(t, kind, n, deadAfter, func(w *World, c *Ctx) error {
				lv := w.Live()
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := lv.BeginDrain(0); err != nil {
						return err
					}
					if err := lv.CompleteDrain(0); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if l := lv.Leader(); l != 0 {
					return fmt.Errorf("rank %d names leader %d with rank 0 %v here, want 0", c.Rank(), l, lv.State(0))
				}
				for deadline := time.Now().Add(2 * deadAfter / heartbeatsPerDead); lv.State(0) != PeerParked; {
					if time.Now().After(deadline) {
						return fmt.Errorf("rank %d never mirrored rank 0 parked (%v)", c.Rank(), lv.State(0))
					}
					time.Sleep(time.Millisecond)
				}
				if l := lv.Leader(); l != 0 {
					return fmt.Errorf("rank %d names leader %d after the tick, want 0", c.Rank(), l)
				}
				return c.Barrier()
			})
		})
	}
}
