package shmem

import (
	"testing"
)

// BenchmarkTransportOps measures single-op cost and allocations per
// one-sided operation kind on each transport (run with -benchmem). Zero
// latency model: the numbers isolate the wire path itself — marshalling,
// buffering, and payload staging — which is what the batched/pooled wire
// path optimizes.
func BenchmarkTransportOps(b *testing.B) {
	kinds := []TransportKind{TransportLocal, TransportTCP}
	if ShmSupported() {
		kinds = append(kinds, TransportShm)
	}
	for _, kind := range kinds {
		kind := kind
		b.Run(kind.String()+"/put/64B", func(b *testing.B) {
			src := make([]byte, 64)
			benchTransportOp(b, kind, func(c *Ctx, addr Addr, i int) error {
				return c.Put(0, addr, src)
			})
		})
		b.Run(kind.String()+"/get/64B", func(b *testing.B) {
			dst := make([]byte, 64)
			benchTransportOp(b, kind, func(c *Ctx, addr Addr, i int) error {
				return c.Get(0, addr, dst)
			})
		})
		b.Run(kind.String()+"/getv/2x32B", func(b *testing.B) {
			dst := make([]byte, 64)
			spans := []Span{{N: 32}, {N: 32}}
			benchTransportOp(b, kind, func(c *Ctx, addr Addr, i int) error {
				spans[0].Addr = addr + 128
				spans[1].Addr = addr
				return c.GetV(0, spans, dst)
			})
		})
		b.Run(kind.String()+"/fetch-add", func(b *testing.B) {
			benchTransportOp(b, kind, func(c *Ctx, addr Addr, i int) error {
				_, err := c.FetchAdd64(0, addr, 1)
				return err
			})
		})
		b.Run(kind.String()+"/store-nbi/quiet64", func(b *testing.B) {
			benchTransportOp(b, kind, func(c *Ctx, addr Addr, i int) error {
				if err := c.Store64NBI(0, addr, uint64(i)); err != nil {
					return err
				}
				if i%64 == 63 {
					return c.Quiet()
				}
				return nil
			})
		})
	}
}

// benchTransportOp drives b.N operations from rank 1 against rank 0's heap.
func benchTransportOp(b *testing.B, kind TransportKind, f func(c *Ctx, addr Addr, i int) error) {
	b.Helper()
	b.ReportAllocs()
	w, err := NewWorld(Config{NumPEs: 2, HeapBytes: 1 << 16, Transport: kind})
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(c *Ctx) error {
		addr, err := c.Alloc(4096)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f(c, addr, i); err != nil {
					return err
				}
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			b.StopTimer()
		}
		return c.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}
