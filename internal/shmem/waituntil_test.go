package shmem

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitUntil64(t *testing.T) {
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
				// Flag PE 1 after a short delay with a one-sided store.
				time.Sleep(2 * time.Millisecond)
				return c.Store64(1, addr, 7)
			}
			v, err := c.WaitUntil64(addr, CmpGE, 5, 5*time.Second)
			if err != nil {
				return err
			}
			if v != 7 {
				return fmt.Errorf("woke on %d, want 7", v)
			}
			return nil
		})
	})
}

func TestWaitUntil64Comparisons(t *testing.T) {
	run(t, Config{NumPEs: 1}, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Store64(0, addr, 10); err != nil {
			return err
		}
		cases := []struct {
			cmp     Cmp
			operand uint64
		}{
			{CmpEQ, 10}, {CmpNE, 3}, {CmpGT, 9}, {CmpGE, 10}, {CmpLT, 11}, {CmpLE, 10},
		}
		for _, cs := range cases {
			if _, err := c.WaitUntil64(addr, cs.cmp, cs.operand, time.Second); err != nil {
				return fmt.Errorf("%v %d: %w", cs.cmp, cs.operand, err)
			}
		}
		// Unsatisfiable comparisons must time out, not hang. The timeout is
		// comfortably above the poller's wake granularity so a slow CI
		// machine cannot turn this into a hang-vs-timeout coin flip; the
		// zero-wall-clock variant of this test runs under the sim transport
		// (TestSimWaitUntilTimeout), where the timeout is virtual.
		if _, err := c.WaitUntil64(addr, CmpGT, 100, 50*time.Millisecond); err == nil {
			return fmt.Errorf("unsatisfiable wait returned")
		}
		// Bad address must be rejected.
		if _, err := c.WaitUntil64(3, CmpEQ, 0, time.Millisecond); err == nil {
			return fmt.Errorf("unaligned wait accepted")
		}
		if _, err := c.WaitUntil64(addr, Cmp(99), 0, time.Millisecond); err == nil {
			return fmt.Errorf("unknown comparison accepted")
		}
		return nil
	})
}

// TestSpinPhaseTimesOut: a wait reads the clock for its deadline once in 64
// of its spin polls, and a deadline still fires while it spins: with a spin
// budget no wait exhausts, a short wait times out without ever parking.
func TestSpinPhaseTimesOut(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		w, err := NewWorld(Config{NumPEs: 2, Transport: kind})
		if err != nil {
			t.Fatal(err)
		}
		w.spin = math.MaxInt
		err = w.Run(func(c *Ctx) error {
			flag, err := c.Alloc(WordSize)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil || c.Rank() == 0 {
				return err
			}
			start := time.Now()
			if _, err := c.WaitUntil64(flag, CmpEQ, 1, 5*time.Millisecond); !errors.Is(err, ErrOpTimeout) {
				return fmt.Errorf("got %v, want ErrOpTimeout", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				return fmt.Errorf("timeout surfaced after %v, want ~5ms", el)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockedWaits pins how a PE blocks, the same on every back-end: with
// the spin budget zeroed the wall-clock ones park at once on the heap's
// wake words — private and tcp heaps exactly like a shared one — and the
// sim parks in its scheduler.
func TestBlockedWaits(t *testing.T) {
	type world struct {
		*World
		sim bool
	}
	rows := []struct {
		name string
		tune func(cfg *Config)
		// body runs on both PEs after a barrier; flag is a zeroed word.
		body func(w world, c *Ctx, flag Addr) error
		// ran checks what Run returned.
		ran func(err error) error
	}{{
		name: "woken by a remote store once parked",
		body: func(w world, c *Ctx, flag Addr) error {
			if c.Rank() == 0 {
				// Store only once the waiter is registered on PE 1's wake
				// words: it parked instead of polling, and the landing is
				// what has to get it out.
				deadline := time.Now().Add(10 * time.Second)
				wait := c.NewWait(0)
				for i := 0; w.sim && i < 10 || !w.sim && atomic.LoadUint64(&w.pes[1].wake.waiters) == 0; i++ {
					if time.Now().After(deadline) {
						return fmt.Errorf("the waiter never parked")
					}
					wait.Poll()
				}
				return c.Store64(1, flag, 42)
			}
			v, err := c.WaitUntil64(flag, CmpEQ, 42, 10*time.Second)
			if err == nil && v != 42 {
				err = fmt.Errorf("woke with value %d, want 42", v)
			}
			return err
		},
	}, {
		// The deadline must fire even while the waiter is parked in the
		// kernel (the park quantum bounds the check interval).
		name: "timeout while parked",
		body: func(w world, c *Ctx, flag Addr) error {
			if c.Rank() == 0 {
				return nil
			}
			start := time.Now()
			_, err := c.WaitUntil64(flag, CmpEQ, 1, 30*time.Millisecond)
			if !errors.Is(err, ErrOpTimeout) {
				return fmt.Errorf("got %v, want ErrOpTimeout", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				return fmt.Errorf("timeout surfaced after %v, want ~30ms", el)
			}
			return nil
		},
	}, {
		name: "unwound by a death declaration",
		tune: func(cfg *Config) {
			cfg.DeadAfter = 20 * time.Millisecond
			if cfg.Transport == TransportSim {
				// Virtual time: the crash fires from the schedule, well
				// after the opening barrier.
				cfg.DeadAfter = 100 * time.Microsecond
				cfg.Sim.Kill = []SimKill{{Rank: 1, At: time.Millisecond}}
			}
		},
		body: func(w world, c *Ctx, flag Addr) error {
			if c.Rank() == 1 {
				return unwindWhenKilled(c)
			}
			if !w.sim {
				w.Kill(1)
			}
			if _, err := c.WaitUntil64(flag, CmpEQ, 1, time.Second); !errors.Is(err, ErrPeerDead) {
				return fmt.Errorf("wait on a word only the dead PE would flip: got %v, want ErrPeerDead", err)
			}
			return nil
		},
		ran: func(err error) error {
			if !errors.Is(err, ErrPEKilled) || errors.Is(err, ErrPeerDead) {
				return fmt.Errorf("got %v, want only the killed PE's own unwind", err)
			}
			return nil
		},
	}, {
		// The wait must unwind on world failure, not sit until timeout.
		name: "unwound by world failure",
		body: func(w world, c *Ctx, flag Addr) error {
			if c.Rank() == 0 {
				return fmt.Errorf("deliberate failure")
			}
			start := time.Now()
			if _, err := c.WaitUntil64(flag, CmpEQ, 1, time.Minute); err == nil {
				return fmt.Errorf("wait survived world failure")
			}
			if el := time.Since(start); el > 10*time.Second {
				return fmt.Errorf("unwound after %v", el)
			}
			return nil
		},
		ran: func(err error) error {
			if err == nil || !strings.Contains(err.Error(), "deliberate failure") || strings.Contains(err.Error(), "survived") {
				return fmt.Errorf("got %v, want the deliberate failure alone", err)
			}
			return nil
		},
	}}
	everyTransport(t, func(t *testing.T, cfg Config) {
		for _, row := range rows {
			row, cfg := row, cfg
			t.Run(row.name, func(t *testing.T) {
				if row.tune != nil {
					row.tune(&cfg)
				}
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w.spin = 0
				err = w.Run(func(c *Ctx) error {
					flag, err := c.Alloc(WordSize)
					if err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					return row.body(world{w, cfg.Transport == TransportSim}, c, flag)
				})
				if row.ran != nil {
					err = row.ran(err)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// A Quiet whose target stops acknowledging — socket open, service loop
// stalled, so no connection ever breaks — must not outlive the target's
// death declaration: it fails with ErrPeerDead, and the written-off
// injections leave the next Quiet balanced.
func TestTCPQuietUnwindsOnDeadTarget(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	// PE 1's stand-in accepts PE 0's connections and never reads them.
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		for {
			conn, err := stalled.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	w.transport.(*tcpTransport).addrs[1] = stalled.Addr().String()
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Ctx) error {
			if c.Rank() == 1 {
				return nil
			}
			if err := c.Store64NBI(1, reservedHeapBytes, 1); err != nil {
				return err
			}
			time.AfterFunc(20*time.Millisecond, func() { w.Live().MarkDead(1) })
			if err := c.Quiet(); !errors.Is(err, ErrPeerDead) {
				return fmt.Errorf("Quiet with a dead, silent target: got %v, want ErrPeerDead", err)
			}
			return c.Quiet()
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Quiet never returned: no exit for a dead peer whose acks never arrive")
	}
}

// An in-process world over private heaps is memory and nothing else: no
// applier, prober or service goroutine stands between an
// initiator and a heap.
func TestLocalWorldStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := NewWorld(Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("NewWorld(TransportLocal) started %d goroutines, want 0", after-before)
	}
	if err := w.Run(func(c *Ctx) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestCmpStrings(t *testing.T) {
	for _, c := range []Cmp{CmpEQ, CmpNE, CmpGT, CmpGE, CmpLT, CmpLE} {
		if c.String() == "" {
			t.Errorf("cmp %d has empty string", int(c))
		}
	}
	if Cmp(42).String() == "" {
		t.Error("unknown cmp empty")
	}
}
