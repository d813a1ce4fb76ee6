package shmem

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// directTransport executes one-sided operations against the target heap
// from the initiating goroutine — the software analogue of NIC-side
// RDMA/atomic offload: the target PE's worker code (and, across
// processes, its CPU) is never involved. It serves both heap kinds whose
// bytes the initiator can address, and what differs between them is fixed
// when the world is built, not selected:
//
//   - Go-slice heaps (TransportLocal; seg == nil). Non-blocking operations
//     are handed to a per-target applier goroutine and Quiet waits for the
//     initiator's outstanding injections. Routing NBI ops through an
//     applier instead of applying them inline preserves the essential
//     weak-ordering property the protocols must tolerate: a
//     steal-completion store may land at the target well after the thief
//     has moved on.
//   - One MAP_SHARED segment (TransportShm, in-process or joined; see shm.go). On a
//     cache-coherent mapping an injection IS its completion, so NBI ops
//     apply inline and Quiet has nothing to wait for; every mutating op
//     bumps the target's futex wake word, and blocked waits park on it.
//
// Every operation runs the same sequence exactly once: resolve the target,
// fault verdict, latency charge, apply (which validates the address before
// it touches the heap), wake hook, victim flight stamp. Blocking operations
// charge LatencyModel.BlockingRTT (+ bandwidth) before they apply,
// emulating the initiator waiting on a network round trip; injections
// charge only the injection overhead.
type directTransport struct {
	hostWaits
	seg      *shmSegment   // nil on Go-slice heaps
	appliers []*nbiApplier // nil on a mapped segment
	// spin is the bounded-spin budget before a blocked wait on a mapped
	// heap parks in the kernel; tests zero it to force the park path.
	spin int

	closeOnce sync.Once
	closeErr  error
}

// nbiOp is a deferred non-blocking operation. Its r.buf, if any, is a
// pooled copy the applier recycles.
type nbiOp struct {
	r      opReq
	staged *[]byte
	delay  time.Duration
	dup    bool
}

// nbiApplier serializes deferred operations onto one target PE's heap.
type nbiApplier struct {
	ch   chan nbiOp
	done chan struct{}
}

// nbiQueueDepth bounds each applier's backlog; a full queue blocks the
// injector, as a NIC's full send queue would.
const nbiQueueDepth = 1024

// newDirectTransport serves w's heaps: the mapped segment seg, or (nil)
// the Go slices NewWorld allocated.
func newDirectTransport(w *World, seg *shmSegment) *directTransport {
	t := &directTransport{hostWaits: hostWaits{w}, seg: seg, spin: shmDefaultSpin}
	if seg != nil {
		return t
	}
	t.appliers = make([]*nbiApplier, len(w.pes))
	for i, pe := range w.pes {
		a := &nbiApplier{ch: make(chan nbiOp, nbiQueueDepth), done: make(chan struct{})}
		t.appliers[i] = a
		go t.runApplier(a, pe)
	}
	return t
}

func (t *directTransport) runApplier(a *nbiApplier, pe *peState) {
	defer close(a.done)
	for op := range a.ch {
		if _, _, err := t.land(pe, &op.r, op.delay, op.dup, time.Time{}); err != nil {
			t.w.fail(err)
		}
		if op.staged != nil {
			putBuf(op.staged)
		}
		t.w.pes[op.r.from].nbiPending.Add(-1)
	}
}

// land is the back half of every operation, run by the initiator or (for
// a deferred injection) by the target's applier: wait out an injection's
// fault delay, apply (twice on a duplicate verdict, for the ops a fabric
// may redeliver), wake waiters parked on the target's heap, and stamp the
// victim side of a span-tagged op. at is the latency wait's exit clock
// read, if there was one.
func (t *directTransport) land(pe *peState, r *opReq, delay time.Duration, dup bool, at time.Time) (uint64, []byte, error) {
	if delay > 0 {
		time.Sleep(delay)
	}
	val, data, err := t.w.apply(pe, r, nil)
	if err != nil {
		return 0, nil, err
	}
	if dup && r.op.redeliverable() {
		t.w.apply(pe, r, nil)
	}
	if t.seg != nil && r.wrote(val) {
		t.wake(pe)
	}
	t.w.flightVictim(at, r)
	return val, data, nil
}

// wrote reports whether applying r (which fetched val) changed the heap.
func (r *opReq) wrote(val uint64) bool {
	switch r.op {
	case OpGet, OpGetV, OpLoad:
		return false
	case OpCompareSwap:
		return val == r.v1 // only a successful swap mutates
	}
	return true
}

func (t *directTransport) blocking(r opReq) (uint64, []byte, error) {
	pe, err := t.w.target(r.to)
	if err != nil {
		return 0, nil, err
	}
	v := t.w.verdict(&r)
	lat := t.w.cfg.Latency
	at := lat.charge(lat.blockingCost(len(r.buf)) + v.Delay)
	if err := v.failure(); err != nil {
		return 0, nil, opError(r.op, r.from, r.to, err)
	}
	val, data, err := t.land(pe, &r, 0, v.Duplicate, at)
	if r.op == OpFetchAddGet {
		// One round trip covers the claim and the dependent payload, whose
		// size is only known now.
		lat.charge(lat.bandwidth(len(data)))
	}
	return val, data, err
}

// nbi injects r. Fault verdicts apply to injections too: a drop silently
// loses the op (nothing pending, Quiet unaffected — exactly the
// lost-notification failure mode), a delay stalls its landing, and a
// duplicate redelivers it.
func (t *directTransport) nbi(r opReq) error {
	pe, err := t.w.target(r.to)
	if err != nil {
		return err
	}
	v := t.w.verdict(&r)
	if v.dropped() {
		return nil
	}
	t.w.cfg.Latency.charge(t.w.cfg.Latency.InjectOverhead)
	if t.appliers == nil {
		_, _, err := t.land(pe, &r, v.Delay, v.Duplicate, time.Time{})
		return err
	}
	op := nbiOp{r: r, delay: v.Delay, dup: v.Duplicate}
	if r.buf != nil {
		// The injection must own a copy of the source (the caller may
		// reuse it the moment we return).
		op.staged = getBuf(len(r.buf))
		copy(*op.staged, r.buf)
		op.r.buf = *op.staged
	}
	t.w.pes[r.from].nbiPending.Add(1)
	t.appliers[r.to].ch <- op
	return nil
}

// quiet waits for the initiator's deferred injections. On a mapped
// segment nothing is ever deferred, so it is a no-op fence.
func (t *directTransport) quiet(from int) error {
	if t.appliers == nil {
		return nil
	}
	pe := t.w.pes[from]
	return t.w.spinUntil(func() bool { return pe.nbiPending.Load() == 0 })
}

func (t *directTransport) close() error {
	t.closeOnce.Do(func() {
		for _, a := range t.appliers {
			close(a.ch)
		}
		for _, a := range t.appliers {
			<-a.done
		}
		if t.seg != nil {
			if r := t.w.localRank; r >= 0 {
				t.seg.detachRank(r)
			}
			t.closeErr = t.seg.close()
		}
	})
	return t.closeErr
}

// wake unparks waiters blocked on pe's heap after a mutating op. The
// fast path — no one parked — is one atomic load, preserving the
// zero-syscall property for the common case. Otherwise bump the wake
// sequence (so a waiter racing toward futexWait sees a changed value
// and retries) and issue the wake.
//
// Seq-cst interleaving argument: the waiter does inc(waiters), read
// seq, check word, futexWait(seq); the writer does write(word), load
// (waiters), then bump seq + wake. If the writer's waiters load sees 0,
// the waiter's inc had not happened, so its later word check sees the
// write and it never parks on the stale value. Otherwise the writer
// bumps seq and wakes: either the wake lands, or the bump makes the
// waiter's futexWait return EAGAIN immediately.
func (t *directTransport) wake(pe *peState) {
	seq, waiters := t.seg.wakeSlot(pe.rank)
	if atomic.LoadUint64(waiters) == 0 {
		return
	}
	atomic.AddUint64(seq, 1)
	futexWake(futexHalf(seq), math.MaxInt32)
}

// waitWord on a mapped heap spins t.spin iterations and then parks on the
// heap's wake words, so a blocked PE sleeps in the kernel instead of
// burning a core and a peer's one-sided store wakes it in
// sub-microsecond time through the wake hook. Go-slice heaps have no wake
// word and poll.
func (t *directTransport) waitWord(r waitReq) (uint64, error) {
	if t.seg == nil {
		return t.hostWaits.waitWord(r)
	}
	pe := t.w.pes[r.on]
	word := &pe.words[r.addr/WordSize]
	deadline := r.deadline()
	for s := 0; s < t.spin; s++ {
		v := atomic.LoadUint64(word)
		if r.holds(v) {
			return v, nil
		}
		if err := r.giveUp(t.w, deadline, v); err != nil {
			return 0, err
		}
		yield()
	}
	seq, waiters := t.seg.wakeSlot(pe.rank)
	seqP := futexHalf(seq)
	for {
		// Register as a waiter BEFORE sampling the sequence and
		// re-checking the word; see wake() for why this ordering closes
		// the lost-wakeup window.
		atomic.AddUint64(waiters, 1)
		seq := atomic.LoadUint32(seqP)
		v := atomic.LoadUint64(word)
		ok := r.holds(v)
		var err error
		if !ok {
			err = r.giveUp(t.w, deadline, v)
		}
		if !ok && err == nil {
			// The quantum bounds the park so mutations that bypass the
			// transport (self-targeted fast paths) and missed deadlines
			// are observed within shmParkQuantum.
			futexWait(seqP, seq, shmParkQuantum)
		}
		atomic.AddUint64(waiters, ^uint64(0))
		if ok {
			return v, nil
		}
		if err != nil {
			return 0, err
		}
	}
}
