package pool

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
)

// TestHostedCountBalances: every PE and executor goroutine counted into the
// process's compute population (shmem.Host) is counted out when it exits —
// after a world with executors finishes, after a PE fails or panics, and
// after a PE is crash-injected. A leaked +1 would leave the process looking
// crowded for good, and every later compute wait would yield per iteration.
func TestHostedCountBalances(t *testing.T) {
	base := shmem.Host(0)
	balanced := func(what string) {
		t.Helper()
		if n := shmem.Host(0); n != base {
			t.Errorf("after %s: %d goroutines hosted, want %d", what, n, base)
		}
	}

	// 2 PEs x 3 workers, two jobs: executors start and exit with every job.
	// A task sees its own PE and executors counted, and perhaps the peer's.
	var during atomic.Int64
	runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("probe", func(*TaskCtx, []byte) error {
			during.Store(int64(shmem.Host(0)))
			return nil
		})
		p, err := New(c, reg, Config{Seed: 1, Workers: 3})
		if err != nil {
			return err
		}
		for job := 0; job < 2; job++ {
			if c.Rank() == 0 {
				if err := p.Add(h, nil); err != nil {
					return err
				}
			}
			if err := p.Run(); err != nil {
				return err
			}
		}
		return nil
	})
	if n := int(during.Load()); n < base+4 || n > base+6 {
		t.Errorf("a task saw %d goroutines hosted, want %d..%d (2 PEs, 2 or 4 executors)", n, base+4, base+6)
	}
	balanced("a world with executors")

	// A task fails on a PE with an executor; the world fails with it.
	boom := errors.New("boom")
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("fail", func(*TaskCtx, []byte) error { return boom })
		p, err := New(c, reg, Config{Seed: 2, Workers: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, nil); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run: got %v, want the task's error", err)
	}
	balanced("a failed PE")

	w, err = shmem.NewWorld(shmem.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run: a panicking PE returned no error")
	}
	balanced("a panicking PE")

	w, err = shmem.NewWorld(shmem.Config{NumPEs: 2, DeadAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		if c.Rank() == 0 {
			w.Kill(1)
			return nil
		}
		wait := c.NewWait(0)
		for c.Err() == nil {
			wait.Poll()
		}
		return c.Err()
	})
	if !errors.Is(err, shmem.ErrPEKilled) {
		t.Fatalf("Run: got %v, want ErrPEKilled", err)
	}
	balanced("a killed PE")
}
