package shmem

import (
	"fmt"
	"time"
)

// barrier is one rank's handle on the world's one barrier, the same on
// every world — local, shm, tcp or the sim, in-process or joined: a
// sense-counting barrier on rank 0's reserved words. A PE arrives with a
// fetch-add on WordBarrierArrive; the last arriver resets the count and
// releases everyone by bumping WordBarrierGen, which the others wait on
// through the transport's one wait on a word (waitWord: hostWaits' loop on
// a wall clock, a parked wait in the sim's virtual time). gen is the
// generation this rank last saw released.
//
// The words are runtime memory, not traffic: where rank 0's heap is
// addressable in this process the three ops land on it directly, with no
// fault verdict, no latency charge and no sim schedule step; only a joined
// tcp rank other than 0 sends them over the transport. What ends a barrier
// early — world failure, a crash injection, a dead member — is
// waitReq.giveUp's rule, as for any wait.
type barrier struct {
	w       *World
	rank, n int
	gen     uint64
	timeout time.Duration
}

func newBarrier(w *World, rank, n int) barrier {
	return barrier{w: w, rank: rank, n: n, timeout: barrierTimeout}
}

// req is the wait for the release of the generation after b.gen. A lost
// peer the detector has not noticed surfaces as ErrBarrierTimeout.
func (b *barrier) req() waitReq {
	return waitReq{
		rank: b.rank, on: 0, addr: WordBarrierGen.Addr(), cmp: CmpGT, operand: b.gen,
		what: "barrier", timeout: b.timeout, expired: ErrBarrierTimeout,
	}
}

// op applies one barrier op to rank 0's heap.
func (b *barrier) op(op Op, addr Addr, v uint64) (uint64, error) {
	r := opReq{op: op, from: b.rank, to: 0, addr: addr, v1: v}
	var val uint64
	var err error
	if pe := b.w.pes[0]; pe != nil {
		val, _, err = b.w.land(pe, &r, false, time.Time{}, nil)
	} else {
		val, _, err = b.w.transport.blocking(r)
	}
	if err != nil {
		return 0, fmt.Errorf("shmem: barrier %v: %w", op, err)
	}
	return val, nil
}

func (b *barrier) wait() error {
	r := b.req()
	if err := r.giveUp(b.w, false, b.gen); err != nil {
		return err
	}
	prev, err := b.op(OpFetchAdd, WordBarrierArrive.Addr(), 1)
	if err != nil {
		return err
	}
	if prev == uint64(b.n-1) {
		// Last arriver: reset the count for the next generation, then
		// release everyone. The order matters — the count must be clean
		// before any released PE can arrive at the next barrier.
		if _, err := b.op(OpStore, WordBarrierArrive.Addr(), 0); err != nil {
			return err
		}
		if _, err := b.op(OpFetchAdd, WordBarrierGen.Addr(), 1); err != nil {
			return err
		}
		b.gen++
		return nil
	}
	g, err := b.w.transport.waitWord(r)
	if err == nil { // waiting for the release ceded the core (cede)
		b.gen = g
		b.w.pes[b.rank].held.Store(int64(mono()))
	}
	return err
}
