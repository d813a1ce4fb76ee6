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
// model, and land the op (World.land) where the target heap is.
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

	// waitWord blocks r.rank until the word r names satisfies the
	// comparison (returning the satisfying value) or r.giveUp says why it
	// never will.
	waitWord(r waitReq) (uint64, error)
	// relax is one empty iteration of rank's poll loop.
	relax(rank int)
	// barrier blocks rank until every PE has arrived.
	barrier(rank int) error
}

// waitReq describes one blocked wait on a 64-bit word: WaitUntil64 on the
// caller's own heap, or the barrier's generation word on rank 0.
type waitReq struct {
	rank int // the waiting PE
	// The watched word lives at addr of PE on's heap. A heap this process
	// cannot address (tcp, a remote rank 0) is polled with blocking loads.
	on   int
	addr Addr

	cmp     Cmp
	operand uint64
	timeout time.Duration // 0 = none
	// what names the wait in errors ("" = the WaitUntil64 it describes) and
	// expired is the sentinel a timeout wraps (nil = ErrOpTimeout).
	what    string
	expired error
}

// holds reports whether v satisfies the wait (the comparison was validated
// before the wait began).
func (r *waitReq) holds(v uint64) bool {
	ok, _ := r.cmp.eval(v, r.operand)
	return ok
}

// String names the wait for its errors (by value use only: a waitReq
// handed to fmt would escape and cost every wait an allocation).
func (r *waitReq) String() string {
	if r.what != "" {
		return r.what
	}
	return fmt.Sprintf("WaitUntil64(%#x %v %d)", uint64(r.addr), r.cmp, r.operand)
}

// deadErr unwinds a wait one of whose peers is gone with a named error
// instead of spinning out the timeout.
func (r *waitReq) deadErr() error {
	return fmt.Errorf("shmem: %s aborted, peer declared dead: %w", r.String(), ErrPeerDead)
}

func (r *waitReq) timeoutErr(last uint64) error {
	expired := r.expired
	if expired == nil {
		expired = ErrOpTimeout
	}
	return fmt.Errorf("shmem: %s timed out after %v (last value %d): %w", r.String(), r.timeout, last, expired)
}

// giveUp is the one rule that ends a wait short of its word, on either
// clock, in this order: world failure (or the waiter's own crash
// injection), a dead peer (any could have been the one to flip the word),
// the deadline — expired says whether it passed on the caller's clock (the
// wall clock in waitWord's loop, virtual time in the sim's scheduler).
func (r *waitReq) giveUp(w *World, expired bool, last uint64) error {
	if err := w.errFor(r.rank); err != nil {
		return err
	}
	if w.live.AnyDead() {
		return r.deadErr()
	}
	if expired {
		return r.timeoutErr(last)
	}
	return nil
}

// Blocked-wait parameters, fixed for every heap.
const (
	// waitSpin is the bounded-spin budget, in yields, before a blocked
	// wait parks in the kernel.
	waitSpin = 512
	// parkQuantum bounds every park: a store that bypasses the transport
	// (a PE's self-targeted fast path), a failure or a death declaration
	// and a missed deadline are all observed within one quantum.
	parkQuantum = time.Millisecond
	// remotePoll paces the polling of a word on a heap this process
	// cannot address, which has no wake words here to park on.
	remotePoll = 5 * time.Microsecond
)

// hostWaits is how a PE blocks when PEs are free-running goroutines on the
// host scheduler — every back-end but the sim: Relax is a yield with an
// occasional sleep, and every blocked wait, the barrier's included, is the
// one loop below.
type hostWaits struct{ w *World }

func (h hostWaits) relax(rank int) { h.w.pes[rank].pause() }

func (h hostWaits) barrier(rank int) error { return h.w.bars[rank].wait() }

// waitWord is the one wall-clock blocking loop: spin w.spin yields on the
// word (reading the clock for a deadline once in 64), then park on the wake
// words of the heap its writers land on, so a blocked PE sleeps in the
// kernel instead of burning a core and a peer's one-sided store wakes it in
// sub-microsecond time (see peState.wakeWaiters). Where the word lives
// decides only how it is read and what there is to park on: a heap this
// process cannot address is loaded over the transport and paced by a sleep.
func (h hostWaits) waitWord(r waitReq) (uint64, error) {
	w := h.w
	pe := w.pes[r.on]
	var word *uint64
	if pe != nil {
		word = &pe.words[r.addr/WordSize]
	}
	var deadline time.Time
	if r.timeout > 0 {
		deadline = time.Now().Add(r.timeout)
	}
	for i := 0; ; i++ {
		// Register as a waiter BEFORE sampling the sequence and checking the
		// word; wakeWaiters says why this ordering closes the lost-wakeup
		// window.
		park := i >= w.spin && pe != nil
		var seq uint32
		if park {
			atomic.AddUint64(&pe.wake.waiters, 1)
			seq = atomic.LoadUint32(futexHalf(&pe.wake.seq))
		}
		var v uint64
		var err error
		if word != nil {
			v = atomic.LoadUint64(word)
		} else if v, _, err = w.transport.blocking(opReq{op: OpLoad, from: r.rank, to: r.on, addr: r.addr}); err != nil {
			err = fmt.Errorf("shmem: %s poll: %w", r.String(), err)
		}
		done := err != nil || r.holds(v)
		if !done {
			err = r.giveUp(w, r.timeout > 0 && (park || pe == nil || i%64 == 0) && time.Now().After(deadline), v)
			done = err != nil
		}
		switch {
		case done:
		case park:
			futexWait(futexHalf(&pe.wake.seq), seq, parkQuantum)
		case pe == nil:
			time.Sleep(remotePoll)
		default:
			yield()
		}
		if park {
			atomic.AddUint64(&pe.wake.waiters, ^uint64(0))
		}
		if done {
			return v, err
		}
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
