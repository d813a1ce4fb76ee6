package shmem

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// freeAddr reserves a loopback port for a coordinator.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// joinWorld runs n Join members concurrently (each with its own World —
// the same code path OS processes take, here sharing a process only for
// test convenience) and applies body on each.
func joinWorld(t *testing.T, n int, body func(*Ctx) error) []error {
	t.Helper()
	coord := freeAddr(t)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := Join(Config{NumPEs: n, Transport: TransportTCP}, Endpoint{Rank: rank, Coordinator: coord})
			if err != nil {
				errs[rank] = fmt.Errorf("join rank %d: %w", rank, err)
				return
			}
			errs[rank] = w.Run(body)
		}(rank)
	}
	wg.Wait()
	return errs
}

// TestWorldValidation drives one table of world descriptions through every
// way a world is built — NewWorld, Join over tcp, Join over shm — so the
// three cannot disagree on what a valid world is. A heap must hold the
// runtime's reserved words (barrier, heartbeat, membership): accepted
// worlds prove it by completing a barrier.
func TestWorldValidation(t *testing.T) {
	builders := []struct {
		name  string
		build func(t *testing.T, cfg Config) (*World, error)
	}{
		{"NewWorld", func(t *testing.T, cfg Config) (*World, error) { return NewWorld(cfg) }},
		{"Join/tcp", func(t *testing.T, cfg Config) (*World, error) {
			cfg.Transport = TransportTCP
			return Join(cfg, Endpoint{Coordinator: "127.0.0.1:0"})
		}},
		{"Join/shm", func(t *testing.T, cfg Config) (*World, error) {
			requireShm(t)
			cfg.Transport = TransportShm
			path := filepath.Join(t.TempDir(), ShmSegmentName())
			// A description Join must reject has no segment to attach to;
			// the rejection has to come before Join looks for one.
			if seg, err := CreateShmSegment(path, cfg.NumPEs, cfg.HeapBytes); err == nil {
				t.Cleanup(func() { seg.Close() })
			}
			return Join(cfg, Endpoint{Segment: path})
		}},
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"no PEs", Config{NumPEs: 0, HeapBytes: 1 << 12}, false},
		{"negative PEs", Config{NumPEs: -3, HeapBytes: 1 << 12}, false},
		{"negative heap", Config{NumPEs: 1, HeapBytes: -8}, false},
		{"heap below a word", Config{NumPEs: 1, HeapBytes: 4}, false},
		{"heap of one word", Config{NumPEs: 1, HeapBytes: WordSize}, false},
		{"heap one word short of the reserved region", Config{NumPEs: 1, HeapBytes: reservedHeapBytes - WordSize}, false},
		{"heap of exactly the reserved region", Config{NumPEs: 1, HeapBytes: reservedHeapBytes}, true},
		{"heap rounding up to the reserved region", Config{NumPEs: 1, HeapBytes: reservedHeapBytes - 3}, true},
		{"page heap", Config{NumPEs: 1, HeapBytes: 1 << 12}, true},
	}
	for _, b := range builders {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				start := time.Now()
				w, err := b.build(t, tc.cfg)
				if !tc.ok {
					if err == nil {
						w.Run(func(*Ctx) error { return nil })
						t.Fatalf("accepted %+v", tc.cfg)
					}
					if el := time.Since(start); el > 5*time.Second {
						t.Errorf("rejected only after %v (%v): validation must precede the rendezvous", el, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("rejected %+v: %v", tc.cfg, err)
				}
				if got := w.Config().HeapBytes; got%LineSize != 0 || got < tc.cfg.HeapBytes || got >= tc.cfg.HeapBytes+LineSize {
					t.Errorf("HeapBytes %d became %d, want the next line multiple", tc.cfg.HeapBytes, got)
				}
				if err := w.Run(func(c *Ctx) error { return c.Barrier() }); err != nil {
					t.Errorf("barrier on an accepted world: %v", err)
				}
			})
		}
	}

	// What only a joined world can get wrong: the endpoint.
	for _, tc := range []struct {
		name string
		cfg  Config
		at   Endpoint
	}{
		{"negative rank", Config{NumPEs: 2, Transport: TransportTCP}, Endpoint{Rank: -1, Coordinator: "x"}},
		{"rank past the world", Config{NumPEs: 2, Transport: TransportTCP}, Endpoint{Rank: 2, Coordinator: "x"}},
		{"tcp without a coordinator", Config{NumPEs: 2, Transport: TransportTCP}, Endpoint{}},
		{"shm without a segment", Config{NumPEs: 2, Transport: TransportShm}, Endpoint{}},
		{"in-process transport", Config{NumPEs: 2}, Endpoint{Coordinator: "x", Segment: "x"}},
		{"sim transport", Config{NumPEs: 2, Transport: TransportSim}, Endpoint{Coordinator: "x", Segment: "x"}},
	} {
		if _, err := Join(tc.cfg, tc.at); err == nil {
			t.Errorf("Join accepted %s: %+v %+v", tc.name, tc.cfg, tc.at)
		}
	}
}

func TestDistSingleRank(t *testing.T) {
	errs := joinWorld(t, 1, func(c *Ctx) error {
		if c.NumPEs() != 1 || c.Rank() != 0 {
			return fmt.Errorf("identity wrong: %d/%d", c.Rank(), c.NumPEs())
		}
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Store64(0, addr, 42); err != nil {
			return err
		}
		v, err := c.Load64(0, addr)
		if err != nil || v != 42 {
			return fmt.Errorf("load: %d, %v", v, err)
		}
		return c.Barrier()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistPutGetAcrossMembers(t *testing.T) {
	errs := joinWorld(t, 3, func(c *Ctx) error {
		addr, err := c.Alloc(64)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Each rank writes a tagged message into its right neighbour.
		right := (c.Rank() + 1) % c.NumPEs()
		msg := []byte(fmt.Sprintf("from rank %d!", c.Rank()))
		if err := c.Put(right, addr, msg); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		left := (c.Rank() + c.NumPEs() - 1) % c.NumPEs()
		want := fmt.Sprintf("from rank %d!", left)
		got := make([]byte, len(want))
		if err := c.Get(c.Rank(), addr, got); err != nil {
			return err
		}
		if string(got) != want {
			return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
		}
		return c.Barrier()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistAtomicsAndBarrier(t *testing.T) {
	const n = 4
	const each = 25
	errs := joinWorld(t, n, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
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
		// Several more barrier generations to exercise the heap barrier's
		// count-reset protocol.
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistNBIQuiet(t *testing.T) {
	errs := joinWorld(t, 2, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < 50; i++ {
				if err := c.Add64NBI(0, addr, 2); err != nil {
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
		if c.Rank() == 0 {
			v, err := c.Load64(0, addr)
			if err != nil {
				return err
			}
			if v != 100 {
				return fmt.Errorf("after quiet: %d, want 100", v)
			}
		}
		return c.Barrier()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A vectored get must cross process-style boundaries intact: the span
// table travels in the request payload and the gather comes back in one
// response.
func TestDistGetV(t *testing.T) {
	errs := joinWorld(t, 2, func(c *Ctx) error {
		addr, err := c.Alloc(128)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			buf := make([]byte, 128)
			for i := range buf {
				buf[i] = byte(i ^ 0x5a)
			}
			if err := c.Put(1, addr, buf); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			spans := []Span{{Addr: addr + 96, N: 32}, {Addr: addr, N: 16}}
			got := make([]byte, 48)
			before := c.Counters().Snapshot()
			if err := c.GetV(1, spans, got); err != nil {
				return err
			}
			d := c.Counters().Snapshot().Sub(before)
			if d.Of(OpGetV) != 1 || d.Total() != 1 {
				return fmt.Errorf("dist GetV counted as %v, want one getv", d)
			}
			for i := 0; i < 32; i++ {
				if got[i] != byte((96+i)^0x5a) {
					return fmt.Errorf("byte %d = %#x, want %#x", i, got[i], byte((96+i)^0x5a))
				}
			}
			for i := 0; i < 16; i++ {
				if got[32+i] != byte(i^0x5a) {
					return fmt.Errorf("byte %d = %#x, want %#x", 32+i, got[32+i], byte(i^0x5a))
				}
			}
		}
		return c.Barrier()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
