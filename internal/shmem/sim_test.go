package shmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// simWorld builds a TransportSim world with the event log captured.
func simWorld(t *testing.T, numPEs int, seed int64, log *bytes.Buffer) *World {
	t.Helper()
	opts := SimOptions{Seed: seed, MaxVirtualTime: 2 * time.Second}
	if log != nil {
		opts.Log = log
	}
	w, err := NewWorld(Config{
		NumPEs:    numPEs,
		HeapBytes: 1 << 16,
		Transport: TransportSim,
		Sim:       opts,
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

// simChurn is a small all-to-all workload touching every op class:
// blocking atomics, puts/gets, NBI stores/adds, Quiet, WaitUntil64, and
// barriers.
func simChurn(ctx *Ctx) error {
	n := ctx.NumPEs()
	me := ctx.Rank()
	counter := ctx.MustAlloc(WordSize)
	flag := ctx.MustAlloc(WordSize)
	buf := ctx.MustAlloc(64)
	if err := ctx.Barrier(); err != nil {
		return err
	}
	for round := 0; round < 3; round++ {
		for pe := 0; pe < n; pe++ {
			if _, err := ctx.FetchAdd64(pe, counter, 1); err != nil {
				return err
			}
			if err := ctx.Add64NBI(pe, counter, 100); err != nil {
				return err
			}
			var data [8]byte
			binary.NativeEndian.PutUint64(data[:], uint64(me*1000+round))
			if err := ctx.Put(pe, buf+Addr(8*me), data[:]); err != nil {
				return err
			}
		}
		if err := ctx.Quiet(); err != nil {
			return err
		}
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	got, err := ctx.Load64(me, counter)
	if err != nil {
		return err
	}
	want := uint64(3 * n * 101)
	if got != want {
		return fmt.Errorf("PE %d counter = %d, want %d", me, got, want)
	}
	// Point-to-point: each PE signals its right neighbor.
	right := (me + 1) % n
	if err := ctx.Store64NBI(right, flag, uint64(me+1)); err != nil {
		return err
	}
	if err := ctx.Quiet(); err != nil {
		return err
	}
	left := (me + n - 1) % n
	v, err := ctx.WaitUntil64(flag, CmpEQ, uint64(left+1), time.Second)
	if err != nil {
		return err
	}
	if v != uint64(left+1) {
		return fmt.Errorf("PE %d flag = %d, want %d", me, v, left+1)
	}
	return ctx.Barrier()
}

func runSimChurn(t *testing.T, seed int64) []byte {
	t.Helper()
	var log bytes.Buffer
	w := simWorld(t, 4, seed, &log)
	if err := w.Run(simChurn); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return log.Bytes()
}

// TestSimWorldWithoutRunLeaksNothing: a sim world is state behind a mutex
// its PEs pass, not a scheduler goroutine, so building worlds and never
// running them leaves no goroutine behind. Only a rise counts, re-read for
// up to a second: an earlier test's goroutine may exit (or finish exiting)
// meanwhile.
func TestSimWorldWithoutRunLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		simWorld(t, 4, int64(i), nil)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("50 unrun sim worlds left %d goroutines behind", after-before)
	}
}

// TestSimDeterministicLog is the transport-level half of the acceptance
// criterion: the same seed yields a byte-identical event log.
func TestSimDeterministicLog(t *testing.T) {
	a := runSimChurn(t, 42)
	b := runSimChurn(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different event logs:\nrun1 %d bytes, run2 %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("event log is empty")
	}
	c := runSimChurn(t, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event logs (schedule not seed-driven?)")
	}
}

// TestSimChaosDeterministic: chaos mode explores different schedules but
// must stay reproducible from the seed.
func TestSimChaosDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		var log bytes.Buffer
		w, err := NewWorld(Config{
			NumPEs:    4,
			HeapBytes: 1 << 16,
			Transport: TransportSim,
			Sim:       SimOptions{Seed: seed, Chaos: true, Log: &log, MaxVirtualTime: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		if err := w.Run(simChurn); err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		return log.Bytes()
	}
	if !bytes.Equal(run(7), run(7)) {
		t.Fatal("chaos mode is not reproducible from the seed")
	}
}

// TestSimWaitUntilTimeout: an unsatisfiable wait must time out in virtual
// time (the sim analogue of waituntil_test.go's wall-clock test, with no
// real-time sleeping at all).
func TestSimWaitUntilTimeout(t *testing.T) {
	w := simWorld(t, 2, 1, nil)
	err := w.Run(func(ctx *Ctx) error {
		addr := ctx.MustAlloc(WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			_, err := ctx.WaitUntil64(addr, CmpEQ, 999, 50*time.Millisecond)
			if err == nil {
				return fmt.Errorf("unsatisfiable wait returned nil error")
			}
			if !strings.Contains(err.Error(), "timed out") {
				return fmt.Errorf("want timeout error, got: %v", err)
			}
		}
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSimDeadlockDetection: a PE waiting forever on a store nobody sends
// must be diagnosed as a deadlock with a state dump, not hang.
func TestSimDeadlockDetection(t *testing.T) {
	w := simWorld(t, 2, 1, nil)
	err := w.Run(func(ctx *Ctx) error {
		addr := ctx.MustAlloc(WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// No timeout, and PE 1 exits without storing: unsatisfiable.
			_, err := ctx.WaitUntil64(addr, CmpEQ, 1, 0)
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("deadlocked world returned nil error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock diagnosis, got: %v", err)
	}
	if !strings.Contains(err.Error(), "PE 0") {
		t.Fatalf("want per-PE state dump in error, got: %v", err)
	}
}

// TestSimLivelockBudget: PEs that spin forever through a Wait exhaust the
// virtual-time budget and fail with a diagnosis instead of hanging.
func TestSimLivelockBudget(t *testing.T) {
	w, err := NewWorld(Config{
		NumPEs:    2,
		HeapBytes: 1 << 16,
		Transport: TransportSim,
		Sim:       SimOptions{Seed: 1, MaxVirtualTime: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	err = w.Run(func(ctx *Ctx) error {
		wait := ctx.NewWait(0)
		for {
			if werr := ctx.Err(); werr != nil {
				return werr
			}
			wait.Poll()
		}
	})
	if err == nil {
		t.Fatal("livelocked world returned nil error")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget diagnosis, got: %v", err)
	}
}

// TestSimDropFaults: dropped NBI stores are silently lost (Quiet still
// completes) and the drop is reproducible from the seed.
func TestSimDropFaults(t *testing.T) {
	run := func() (uint64, uint64) {
		drops := &DropFaults{Fraction: 0.5, Ops: []Op{OpStoreNBI}, Seed: 9}
		w, err := NewWorld(Config{
			NumPEs:    2,
			HeapBytes: 1 << 16,
			Transport: TransportSim,
			Fault:     drops,
			Sim:       SimOptions{Seed: 9, MaxVirtualTime: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		var landed uint64
		err = w.Run(func(ctx *Ctx) error {
			slots := ctx.MustAlloc(64 * WordSize)
			if err := ctx.Barrier(); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				for i := 0; i < 64; i++ {
					if err := ctx.Store64NBI(1, slots+Addr(i*WordSize), 1); err != nil {
						return err
					}
				}
				if err := ctx.Quiet(); err != nil {
					return err
				}
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			if ctx.Rank() == 1 {
				for i := 0; i < 64; i++ {
					v, err := ctx.Load64(1, slots+Addr(i*WordSize))
					if err != nil {
						return err
					}
					landed += v
				}
			}
			return ctx.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return landed, drops.Dropped()
	}
	landed1, dropped1 := run()
	landed2, dropped2 := run()
	if dropped1 == 0 {
		t.Fatal("drop injector never fired")
	}
	if landed1+dropped1 != 64 {
		t.Fatalf("landed %d + dropped %d != 64 injected", landed1, dropped1)
	}
	if landed1 != landed2 || dropped1 != dropped2 {
		t.Fatalf("fault injection not reproducible: run1 (%d landed, %d dropped) vs run2 (%d, %d)",
			landed1, dropped1, landed2, dropped2)
	}
}

// TestSimPartition: blocking ops across a partition fail with
// ErrPartitioned; healing restores connectivity.
func TestSimPartition(t *testing.T) {
	part := &Partition{}
	healed := make(chan struct{})
	w, err := NewWorld(Config{
		NumPEs:    2,
		HeapBytes: 1 << 16,
		Transport: TransportSim,
		Fault:     part,
		Sim:       SimOptions{Seed: 3, MaxVirtualTime: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	err = w.Run(func(ctx *Ctx) error {
		addr := ctx.MustAlloc(WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			part.Split([]int{1})
			if _, err := ctx.Load64(1, addr); err == nil {
				return fmt.Errorf("cross-partition load succeeded")
			}
			part.Heal()
			close(healed)
			if _, err := ctx.Load64(1, addr); err != nil {
				return fmt.Errorf("post-heal load failed: %v", err)
			}
		}
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-healed:
	default:
		t.Fatal("partition was never healed")
	}
}

// TestSimForcedChoices: a forced-choice prefix perturbs the schedule yet
// remains fully deterministic (the bounded systematic mode's substrate).
func TestSimForcedChoices(t *testing.T) {
	run := func(choices []byte) []byte {
		var log bytes.Buffer
		w, err := NewWorld(Config{
			NumPEs:    3,
			HeapBytes: 1 << 16,
			Transport: TransportSim,
			Sim:       SimOptions{Seed: 5, Choices: choices, Log: &log, MaxVirtualTime: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		if err := w.Run(simChurn); err != nil {
			t.Fatalf("choices %v: %v", choices, err)
		}
		return log.Bytes()
	}
	base := run(nil)
	forced := run([]byte{2, 1, 2, 0, 1, 1, 2, 0})
	if !bytes.Equal(forced, run([]byte{2, 1, 2, 0, 1, 1, 2, 0})) {
		t.Fatal("forced-choice schedule is not deterministic")
	}
	if bytes.Equal(base, forced) {
		t.Log("forced prefix did not change the schedule (acceptable but unusual)")
	}
}
