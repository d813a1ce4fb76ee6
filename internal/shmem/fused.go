package shmem

import (
	"fmt"
	"sync"
)

// Fused operations emulate a programmable NIC in the style of the
// Portals 4 work the reproduced paper cites as its inspiration (§1: prior
// work "reduced communications for steal transactions to a single network
// round-trip" using next-generation interconnect offload). A fused
// fetch-add-get performs an atomic fetch-add and a dependent get — whose
// address range is *computed at the target from the fetched value* — in
// one round trip.
//
// The range computation is a handler registered identically on every PE
// (SPMD), keyed by the symmetric address of the word it fetches, so
// nothing but plain data crosses the wire: the initiator sends (word
// address, delta) and the target-side service — the "NIC" — runs the
// word's handler on the fetched value to decide which bytes to return.
// Handlers must be pure functions of the fetched value: they run outside
// the owner's goroutine.

// FusedRange maps a fetched word to at most two heap ranges to read (two
// because a circular-buffer block may wrap). Return n=0 spans for "no
// data" (e.g. the word shows nothing claimable).
type FusedRange func(old uint64) (ranges [2]Span, n int)

// fusedRegistry holds the world's handlers, by word address.
type fusedRegistry struct {
	mu sync.RWMutex
	m  map[Addr]FusedRange
}

func (r *fusedRegistry) register(addr Addr, f FusedRange) error {
	if f == nil {
		return fmt.Errorf("shmem: nil fused handler")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[Addr]FusedRange)
	}
	if _, dup := r.m[addr]; dup {
		// SPMD worlds register the same symmetric handler once per PE;
		// keep the first copy. Handlers must be identical per word.
		return nil
	}
	r.m[addr] = f
	return nil
}

func (r *fusedRegistry) lookup(addr Addr) (FusedRange, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.m[addr]
	return f, ok
}

// RegisterFused installs the fused-range handler of the word at symmetric
// address addr. Every PE must register the same handler for the same word
// (SPMD); duplicate registrations keep the first copy. Registering on one
// PE of a local world is visible to all; each process of a distributed
// world registers its own copy.
func (c *Ctx) RegisterFused(addr Addr, f FusedRange) error {
	return c.w.fused.register(addr, f)
}

// FetchAddGet atomically adds delta to the word at addr on PE pe and, in
// the same round trip, returns the bytes selected by the word's registered
// handler applied to the prior value, gathered into dst's backing array
// when its capacity covers them (else into a fresh one). One blocking
// communication.
func (c *Ctx) FetchAddGet(pe int, addr Addr, delta uint64, dst []byte) (uint64, []byte, error) {
	return c.WithSpan(0).FetchAddGet(pe, addr, delta, dst)
}

// applyFused runs the handler against a target heap and gathers the
// selected bytes (the "NIC-side" half of a fused op) into buf's backing
// array when its capacity suffices (one pass, no per-span staging — the
// wrapped-block case is a single vectored gather). The returned slice
// aliases buf only if cap(buf) covered the spans' total, and is otherwise
// freshly allocated: buf is the initiator's dst, or the tcp service's
// response scratch.
func (w *World) applyFused(pe *peState, old uint64, addr Addr, buf []byte) ([]byte, error) {
	f, ok := w.fused.lookup(addr)
	if !ok {
		return nil, fmt.Errorf("shmem: no fused handler registered for %#x", uint64(addr))
	}
	ranges, n := f(old)
	if n < 0 || n > len(ranges) {
		return nil, fmt.Errorf("shmem: fused handler of %#x returned %d ranges", uint64(addr), n)
	}
	total := 0
	for _, sp := range ranges[:n] {
		if err := pe.checkRange(sp.Addr, sp.N); err != nil {
			return nil, fmt.Errorf("shmem: fused handler of %#x produced bad range: %w", uint64(addr), err)
		}
		total += sp.N
	}
	out := buf
	if cap(out) < total {
		out = make([]byte, total)
	}
	out = out[:total]
	off := 0
	for _, sp := range ranges[:n] {
		pe.copyOut(sp.Addr, out[off:off+sp.N])
		off += sp.N
	}
	return out, nil
}
