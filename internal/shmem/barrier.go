package shmem

import (
	"fmt"
	"sync"
	"time"
)

// barrier synchronizes the PEs of a world. Fully local worlds use the
// condition-variable centralBarrier, which parks goroutines (what an
// oversubscribed in-process world needs); distributed worlds synchronize
// through reserved words on rank 0's symmetric heap (heapBarrier). Which
// one follows from an observable fact — whether the world was joined —
// not from an option.
type barrier interface {
	wait() error
	// poisonWith fails current and future waits: with err when it names the
	// cause (a peer declared dead), with the generic world-failure message
	// when err is nil.
	poisonWith(err error)
}

// poison is the state both barriers share: once set, a barrier can no
// longer complete, because a member failed or died and will never arrive.
type poison struct {
	mu       sync.Mutex
	poisoned bool
	perr     error
}

// err returns why the barrier cannot complete, or nil; callers hold p.mu.
func (p *poison) err() error {
	switch {
	case !p.poisoned:
		return nil
	case p.perr != nil:
		return p.perr
	}
	return fmt.Errorf("shmem: barrier poisoned by world failure")
}

func (p *poison) poisonWith(err error) {
	p.mu.Lock()
	if !p.poisoned {
		p.poisoned, p.perr = true, err
	}
	p.mu.Unlock()
}

// centralBarrier is a reusable sense-reversing barrier over the PEs of one
// process. It can be poisoned when the world fails so that surviving PEs
// return an error instead of deadlocking on a peer that will never arrive.
type centralBarrier struct {
	poison  // its mu guards arrived and phase too
	n       int
	cond    *sync.Cond
	arrived int
	phase   uint64
}

func newCentralBarrier(n int) *centralBarrier {
	b := &centralBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n PEs have called wait for the current phase.
func (b *centralBarrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.err(); err != nil {
		return err
	}
	phase := b.phase
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
		return nil
	}
	for b.phase == phase && !b.poisoned {
		b.cond.Wait()
	}
	return b.err()
}

// poisonWith also wakes the waiters. The broadcast needs no lock: a waiter
// that missed the flag under mu is already on the cond's list.
func (b *centralBarrier) poisonWith(err error) {
	b.poison.poisonWith(err)
	b.cond.Broadcast()
}

// heapBarrier is a sense-counting barrier over one-sided operations on
// rank 0's heap: arrive with a fetch-add, release by bumping a generation
// word that the others wait on. It works across OS processes because it
// only uses the transport.
type heapBarrier struct {
	poison
	w       *World
	rank, n int
	gen     uint64
	timeout time.Duration
}

func newHeapBarrier(w *World, rank, n int) *heapBarrier {
	return &heapBarrier{w: w, rank: rank, n: n, timeout: barrierTimeout}
}

// check is the wait loop's view of the poison state.
func (b *heapBarrier) check() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err()
}

func (b *heapBarrier) wait() error {
	if err := b.check(); err != nil {
		return err
	}
	t := b.w.transport
	prev, _, err := t.blocking(opReq{op: OpFetchAdd, from: b.rank, to: 0, addr: barrierArriveAddr, v1: 1})
	if err != nil {
		return fmt.Errorf("shmem: barrier arrive: %w", err)
	}
	if prev == uint64(b.n-1) {
		// Last arriver: reset the count for the next generation, then
		// release everyone. The order matters — the count must be clean
		// before any released PE can arrive at the next barrier.
		if _, _, err := t.blocking(opReq{op: OpStore, from: b.rank, to: 0, addr: barrierArriveAddr}); err != nil {
			return fmt.Errorf("shmem: barrier reset: %w", err)
		}
		if _, _, err := t.blocking(opReq{op: OpFetchAdd, from: b.rank, to: 0, addr: barrierGenAddr, v1: 1}); err != nil {
			return fmt.Errorf("shmem: barrier release: %w", err)
		}
		b.gen++
		return nil
	}
	// Block on the generation word the way every wait blocks: parked on
	// rank 0's wake words where its heap is addressable from this process
	// (a shared mapping, or we are rank 0), polled over the transport
	// where it is not. A lost peer the detector has not noticed surfaces
	// as ErrBarrierTimeout.
	g, err := t.waitWord(waitReq{
		rank: b.rank, on: 0, addr: barrierGenAddr, cmp: CmpGT, operand: b.gen,
		what: "barrier", timeout: b.timeout, expired: ErrBarrierTimeout, check: b.check,
	})
	if err == nil {
		b.gen = g
	}
	return err
}
