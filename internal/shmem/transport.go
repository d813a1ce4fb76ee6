package shmem

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Span is one contiguous symmetric-heap byte range. Vectored operations
// (GetV) and fused-op handlers describe their targets as spans; a
// circular-buffer block that wraps the physical end of the buffer is two
// spans but still one communication.
type Span struct {
	Addr Addr
	N    int
}

// transport is a back-end: how an opReq gets from its initiator to where
// the target heap is addressable (and World.apply runs), and how a PE of
// this kind of world blocks. Self-targeted operations never reach it —
// Ctx.do short-circuits them onto local memory. There are three: direct
// (the initiator applies the op itself, to a Go-slice or mmap'd heap), tcp
// (a service goroutine at the target applies it after wire decode) and sim
// (the lockstep scheduler applies it in virtual time).
//
// Every back-end owns the same three duties on the op path, once each:
// ask the fault injector for a verdict (World.verdict), charge the latency
// model, and stamp the victim side of a span-tagged op into the target's
// flight ring (World.flightVictim) where it applies.
type transport interface {
	// blocking performs r and returns once it has been applied at the
	// target: the fetched word of an atomic, the payload of a fused op.
	blocking(r opReq) (uint64, []byte, error)
	// nbi injects r and returns; completion is observed via quiet. The
	// back-end owns a copy of r.buf before returning.
	nbi(r opReq) error
	// quiet blocks until all NBI operations issued by `from` have been
	// applied at their targets.
	quiet(from int) error
	close() error

	// waitWord blocks r.rank until the heap word r names satisfies the
	// comparison (returning the satisfying value), the world fails, a
	// peer is declared dead, or the timeout expires.
	waitWord(r waitReq) (uint64, error)
	// relax is one empty iteration of rank's poll loop.
	relax(rank int)
	// barrier blocks rank until every PE has arrived.
	barrier(rank int) error
}

// waitReq describes one blocked wait on a heap word this process can
// address: WaitUntil64 on the caller's own heap, or the heap barrier's
// generation word on rank 0.
type waitReq struct {
	rank    int // the waiting PE
	on      int // the PE whose heap holds the word
	addr    Addr
	cmp     Cmp
	operand uint64
	timeout time.Duration // 0 = none
	// check, if non-nil, is an extra reason to give up, polled with the
	// word (the heap barrier's poison state).
	check func() error
}

// holds reports whether v satisfies the wait (the comparison was validated
// before the wait began).
func (r *waitReq) holds(v uint64) bool {
	ok, _ := r.cmp.eval(v, r.operand)
	return ok
}

func (r *waitReq) deadErr() error {
	// A peer that could have flipped this word is gone; unwind with a
	// named error instead of spinning out the timeout.
	return fmt.Errorf("shmem: WaitUntil64(%#x %v %d) aborted, peer declared dead: %w",
		uint64(r.addr), r.cmp, r.operand, ErrPeerDead)
}

func (r *waitReq) timeoutErr(last uint64) error {
	return fmt.Errorf("shmem: WaitUntil64(%#x %v %d) timed out after %v (last value %d): %w",
		uint64(r.addr), r.cmp, r.operand, r.timeout, last, ErrOpTimeout)
}

// giveUp is the per-iteration abort test of a wall-clock wait: the
// caller's own check, world failure (or the waiter's own crash
// injection), a dead peer, the deadline.
func (r *waitReq) giveUp(w *World, deadline time.Time, last uint64) error {
	if r.check != nil {
		if err := r.check(); err != nil {
			return err
		}
	}
	if err := w.errFor(r.rank); err != nil {
		return err
	}
	if w.live.AnyDead() {
		return r.deadErr()
	}
	if r.timeout > 0 && time.Now().After(deadline) {
		return r.timeoutErr(last)
	}
	return nil
}

func (r *waitReq) deadline() time.Time {
	if r.timeout > 0 {
		return time.Now().Add(r.timeout)
	}
	return time.Time{}
}

// hostWaits is how a PE blocks when PEs are free-running goroutines on the
// host scheduler — every back-end but the sim: poll with a yield and an
// occasional sleep, and synchronize through the world's barrier.
type hostWaits struct{ w *World }

func (h hostWaits) relax(rank int) { h.w.pes[rank].pause() }

func (h hostWaits) barrier(int) error { return h.w.barrier.wait() }

func (h hostWaits) waitWord(r waitReq) (uint64, error) {
	pe := h.w.pes[r.on]
	word := &pe.words[r.addr/WordSize]
	deadline := r.deadline()
	for {
		v := atomic.LoadUint64(word)
		if r.holds(v) {
			return v, nil
		}
		if err := r.giveUp(h.w, deadline, v); err != nil {
			return 0, err
		}
		h.w.pes[r.rank].pause()
	}
}

// pause is one backoff step of a poll loop run by this PE: a yield, with
// every 64th a short sleep so an oversubscribed host makes progress.
// Atomic: in multi-worker mode any of the PE's goroutines may poll.
func (p *peState) pause() {
	if p.pauses.Add(1)%64 == 0 {
		time.Sleep(time.Microsecond)
	} else {
		yield()
	}
}
