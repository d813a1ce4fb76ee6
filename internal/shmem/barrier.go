package shmem

import (
	"fmt"
	"sync"
	"time"
)

// barrier synchronizes the PEs of a world. Fully local worlds use the
// condition-variable centralBarrier; distributed worlds synchronize
// through reserved words on rank 0's symmetric heap (heapBarrier).
type barrier interface {
	wait() error
	poison()
	// poisonWith poisons the barrier with a specific cause (e.g. a peer
	// declared dead); waiters unwind with it instead of the generic
	// world-failure message.
	poisonWith(err error)
}

// centralBarrier is a reusable sense-reversing barrier. It synchronizes
// all PEs of a world regardless of transport (for the TCP transport the
// PEs still live in one process; a fully distributed barrier would belong
// to a multi-process launcher).
//
// The barrier can be poisoned when the world fails so that surviving PEs
// return an error instead of deadlocking on a peer that will never arrive.
type centralBarrier struct {
	n int

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	phase    uint64
	poisoned bool
	perr     error
}

func newCentralBarrier(n int) *centralBarrier {
	b := &centralBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// poisonedErr returns the cause to report; callers must hold b.mu.
func (b *centralBarrier) poisonedErr() error {
	if b.perr != nil {
		return b.perr
	}
	return fmt.Errorf("shmem: barrier poisoned by world failure")
}

// wait blocks until all n PEs have called wait for the current phase.
func (b *centralBarrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return b.poisonedErr()
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
	if b.poisoned {
		return b.poisonedErr()
	}
	return nil
}

// poison wakes all waiters with an error and fails all future waits.
func (b *centralBarrier) poison() { b.poisonWith(nil) }

func (b *centralBarrier) poisonWith(err error) {
	b.mu.Lock()
	if !b.poisoned {
		b.poisoned = true
		b.perr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Reserved symmetric-heap words for runtime internals (heap barrier
// state, liveness heartbeat). User allocations start after them on every
// world, keeping addresses symmetric across deployment modes.
const (
	barrierArriveAddr Addr = 0 * WordSize // arrival count on rank 0
	barrierGenAddr    Addr = 1 * WordSize // generation on rank 0
	// heartbeatAddr (2*WordSize) is defined in liveness.go.
	reservedHeapBytes = 8 * WordSize
)

// heapBarrier is a sense-counting barrier over one-sided operations on
// rank 0's heap: arrive with a fetch-add, release by bumping a generation
// word that waiters poll. It works across OS processes because it only
// uses the transport.
type heapBarrier struct {
	w       *World
	rank, n int
	gen     uint64
	timeout time.Duration

	mu       sync.Mutex
	poisoned bool
	perr     error
}

func newHeapBarrier(w *World, rank, n int) *heapBarrier {
	return &heapBarrier{w: w, rank: rank, n: n, timeout: barrierTimeout}
}

// check returns the reason this barrier can no longer complete, if any:
// explicit poisoning, a world failure, or a peer declared dead.
func (b *heapBarrier) check() error {
	b.mu.Lock()
	poisoned, perr := b.poisoned, b.perr
	b.mu.Unlock()
	if poisoned {
		if perr != nil {
			return perr
		}
		return fmt.Errorf("shmem: barrier poisoned by world failure")
	}
	if b.w.failed.Load() {
		return fmt.Errorf("shmem: barrier poisoned by world failure")
	}
	if b.w.live.AnyDead() {
		dead := make([]int, 0, 1)
		for r := 0; r < b.n; r++ {
			if !b.w.live.Alive(r) {
				dead = append(dead, r)
			}
		}
		return fmt.Errorf("shmem: barrier cannot complete, PEs %v are dead: %w", dead, ErrPeerDead)
	}
	return nil
}

func (b *heapBarrier) wait() error {
	if err := b.check(); err != nil {
		return err
	}
	myGen := b.gen
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
	deadline := time.Now().Add(b.timeout)
	giveUp := func() error {
		if err := b.check(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shmem: barrier expired after %v (peer process lost?): %w", b.timeout, ErrBarrierTimeout)
		}
		return nil
	}
	if b.w.pes[0] != nil {
		// Rank 0's heap is addressable from this process (a shared
		// mapping, or we are rank 0): block on the generation word the
		// way the back-end blocks — on shm, parked on its futex.
		g, err := t.waitWord(waitReq{rank: b.rank, on: 0, addr: barrierGenAddr, cmp: CmpGT, operand: myGen, check: giveUp})
		if err != nil {
			return err
		}
		b.gen = g
		return nil
	}
	for {
		g, _, err := t.blocking(opReq{op: OpLoad, from: b.rank, to: 0, addr: barrierGenAddr})
		if err != nil {
			return fmt.Errorf("shmem: barrier poll: %w", err)
		}
		if g > myGen {
			b.gen = g
			return nil
		}
		if err := giveUp(); err != nil {
			return err
		}
		time.Sleep(5 * time.Microsecond)
	}
}

func (b *heapBarrier) poison() { b.poisonWith(nil) }

func (b *heapBarrier) poisonWith(err error) {
	b.mu.Lock()
	if !b.poisoned {
		b.poisoned = true
		b.perr = err
	}
	b.mu.Unlock()
}
