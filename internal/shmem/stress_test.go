package shmem

import (
	"bytes"
	"fmt"
	"testing"
)

// Large transfers must survive both transports intact (the TCP path
// crosses bufio boundaries; the local path exercises the word-atomic
// copy's full loop).
func TestLargeTransfers(t *testing.T) {
	const size = 1 << 20
	transports(t, func(t *testing.T, kind TransportKind) {
		run(t, Config{NumPEs: 2, HeapBytes: 2 * size, Transport: kind}, func(c *Ctx) error {
			addr, err := c.Alloc(size)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				src := make([]byte, size)
				for i := range src {
					src[i] = byte(i * 31)
				}
				if err := c.Put(1, addr, src); err != nil {
					return err
				}
				got := make([]byte, size)
				if err := c.Get(1, addr, got); err != nil {
					return err
				}
				if !bytes.Equal(got, src) {
					return fmt.Errorf("1 MiB round trip corrupted")
				}
			}
			return c.Barrier()
		})
	})
}

// Many initiators hammering a single target with mixed operations: the
// atomics must stay exact and the world must not wedge.
func TestManyToOneContention(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const n = 6
		const rounds = 40
		run(t, Config{NumPEs: n, Transport: kind}, func(c *Ctx) error {
			ctr, err := c.Alloc(8)
			if err != nil {
				return err
			}
			buf, err := c.Alloc(64)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() != 0 {
				payload := bytes.Repeat([]byte{byte(c.Rank())}, 64)
				for i := 0; i < rounds; i++ {
					if _, err := c.FetchAdd64(0, ctr, 1); err != nil {
						return err
					}
					if err := c.Put(0, buf, payload); err != nil {
						return err
					}
					if err := c.Add64NBI(0, ctr, 1); err != nil {
						return err
					}
					got := make([]byte, 64)
					if err := c.Get(0, buf, got); err != nil {
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
			v, err := c.Load64(0, ctr)
			if err != nil {
				return err
			}
			if want := uint64((n - 1) * rounds * 2); v != want {
				return fmt.Errorf("counter %d, want %d", v, want)
			}
			return c.Barrier()
		})
	})
}

// Odd-sized, unaligned-range transfers must round-trip exactly (the
// word-atomic copy falls back to plain bytes at ragged edges).
func TestUnalignedRanges(t *testing.T) {
	run(t, Config{NumPEs: 2}, func(c *Ctx) error {
		addr, err := c.Alloc(256)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for _, off := range []Addr{1, 3, 7, 9} {
				for _, n := range []int{1, 5, 8, 13, 63} {
					src := make([]byte, n)
					for i := range src {
						src[i] = byte(int(off)*100 + i)
					}
					if err := c.Put(1, addr+off, src); err != nil {
						return err
					}
					got := make([]byte, n)
					if err := c.Get(1, addr+off, got); err != nil {
						return err
					}
					if !bytes.Equal(got, src) {
						return fmt.Errorf("off=%d n=%d corrupted", off, n)
					}
				}
			}
		}
		return c.Barrier()
	})
}

// Vectored gets racing bursts of NBI traffic and Quiet on every PE: on tcp
// both ride one connection per pair (each injection written as issued,
// fenced by the next blocking op's reply or Quiet's fence), so
// interleaving them hard is what shakes out ordering and accounting bugs.
// Run under -race.
func TestStressGetVNBIQuiet(t *testing.T) {
	transports(t, func(t *testing.T, kind TransportKind) {
		const n = 4
		const rounds = 60
		// Each burst writes 80 injections ahead of the blocking GetV, whose
		// reply fences them all.
		const burst = 80
		run(t, Config{NumPEs: n, Transport: kind}, func(c *Ctx) error {
			// Layout: a static pattern region plus one accumulator word
			// per peer writer.
			pat, err := c.Alloc(256)
			if err != nil {
				return err
			}
			acc, err := c.Alloc(8 * n)
			if err != nil {
				return err
			}
			me := c.Rank()
			buf := make([]byte, 256)
			for i := range buf {
				buf[i] = byte(me*31 + i)
			}
			if err := c.Put(me, pat, buf); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			victim := (me + 1) % n
			src := (me + 2) % n
			got := make([]byte, 96)
			for r := 0; r < rounds; r++ {
				for b := 0; b < burst; b++ {
					if err := c.Add64NBI(victim, acc+Addr(8*me), 1); err != nil {
						return err
					}
				}
				spans := []Span{
					{Addr: pat + Addr((r*8)%160), N: 64},
					{Addr: pat + Addr((r*4)%200), N: 32},
				}
				if err := c.GetV(src, spans, got); err != nil {
					return err
				}
				for i := 0; i < 64; i++ {
					if want := byte(src*31 + int(spans[0].Addr-pat) + i); got[i] != want {
						return fmt.Errorf("round %d span0 byte %d = %#x, want %#x", r, i, got[i], want)
					}
				}
				for i := 0; i < 32; i++ {
					if want := byte(src*31 + int(spans[1].Addr-pat) + i); got[64+i] != want {
						return fmt.Errorf("round %d span1 byte %d = %#x, want %#x", r, i, got[64+i], want)
					}
				}
				if r%7 == 3 {
					if err := c.Quiet(); err != nil {
						return err
					}
				}
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// Every writer's bursts must have landed exactly once each.
			writer := (me + n - 1) % n
			v, err := c.Load64(me, acc+Addr(8*writer))
			if err != nil {
				return err
			}
			if v != rounds*burst {
				return fmt.Errorf("accumulator from PE %d = %d, want %d", writer, v, rounds*burst)
			}
			return c.Barrier()
		})
	})
}
