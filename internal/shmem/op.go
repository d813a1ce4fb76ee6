package shmem

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/trace"
)

// opReq describes one one-sided operation. It is the only representation
// an operation has between Ctx and a heap: Ctx.do fills one in, the
// back-ends carry it to where the target heap is addressable, and
// World.apply executes it there. It crosses the transport interface by
// value so the op path allocates nothing; below that boundary it travels
// as a pointer to the callee's copy, because copying its 13 words at
// every layer is most of what a shared-memory fetch-add costs.
type opReq struct {
	op       Op
	from, to int  // initiator and target ranks
	addr     Addr // target address; unused by OpGetV, whose ranges are spans
	// v1 is the operand: the delta of a fetch-add/add, the value of a
	// store, the expected value of a compare-swap (v2 is its
	// replacement), the signal of a put-signal (v2 is the signal word's
	// address).
	v1, v2 uint64
	buf    []byte // source of a put, destination of a get/getv
	spans  []Span // OpGetV: the ranges gathered into buf, in order
	// span is the causal span ID (zero = untagged). The back-ends deliver
	// it to wherever the op is applied so the victim side of a steal lands
	// in the target's flight journal under the initiator's span; it never
	// changes an operation's semantics and is never logged or scheduled on.
	span uint64
}

// bulk reports whether the op moves bytes (validated as a byte range)
// rather than acting on one 64-bit word.
func (o Op) bulk() bool {
	switch o {
	case OpPut, OpGet, OpGetV, OpPutSignal:
		return true
	}
	return false
}

// redeliverable reports whether a Duplicate fault verdict re-applies the
// op: stores and injected puts — the deliveries a fabric may retransmit
// after a lost ack. Atomics are acknowledged with their fetch and never
// blindly retried, and a put-signal ends in one: its signal hands the bytes
// to a reader that may hand them on, so a late second copy would overwrite
// whatever the next writer put there.
func (o Op) redeliverable() bool {
	switch o {
	case OpStore, OpStoreNBI:
		return true
	}
	return false
}

// checkBytes validates every byte range a bulk transfer touches.
func (r *opReq) checkBytes(pe *peState) error {
	if r.op != OpGetV {
		return pe.checkRange(r.addr, len(r.buf))
	}
	total := 0
	for _, sp := range r.spans {
		if err := pe.checkRange(sp.Addr, sp.N); err != nil {
			return err
		}
		total += sp.N
	}
	if total != len(r.buf) {
		return fmt.Errorf("shmem: getv spans cover %d bytes, dst holds %d", total, len(r.buf))
	}
	return nil
}

// land is where a remote operation meets the target heap, the same way on
// every back-end — the direct back-end's initiator, the tcp service loop
// after wire decode, the sim's woken op and its delivery step: apply
// (twice on a duplicate verdict, for the ops a fabric may redeliver), wake
// the waiters parked on the heap if it changed, and stamp the victim side
// of a span-tagged op into the target's event ring. at is the latency
// wait's exit clock read if there was one (zero = read the clock now), so
// both halves of a steal land under one span without a second read.
func (w *World) land(pe *peState, r *opReq, dup bool, at time.Time, scratch *[]byte) (uint64, []byte, error) {
	val, data, err := w.apply(pe, r, scratch)
	if err != nil {
		return 0, nil, err
	}
	if dup && r.op.redeliverable() {
		w.apply(pe, r, nil)
	}
	if r.wrote(val) {
		pe.wakeWaiters()
	}
	if r.span != 0 {
		w.Ring(r.to).RecordTime(at, trace.VictimOp, int64(r.op), int64(r.from), r.span)
	}
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

// apply executes r against pe's heap — the one place an Op turns into
// loads and stores on heap bytes. Every path that reaches a heap ends
// here: land, and Ctx's self-target short-circuit.
//
// val is the fetched word of an atomic; data is the bytes a get gathered
// (r.buf) or a fused handler selected. Fused payloads are gathered into
// *scratch when the caller owns a reusable staging buffer (kept grown for
// the next op); with a nil scratch, into r.buf's capacity (the initiator's
// destination), else into fresh memory the caller owns.
func (w *World) apply(pe *peState, r *opReq, scratch *[]byte) (val uint64, data []byte, err error) {
	// Validate first: alignment and bounds of the word an atomic acts on,
	// bounds of every byte range a transfer touches. A put-signal has both,
	// and neither is written unless both are valid.
	var word *uint64
	wordAddr, hasWord := r.addr, true
	if r.op.bulk() {
		if err := r.checkBytes(pe); err != nil {
			return 0, nil, err
		}
		wordAddr, hasWord = Addr(r.v2), r.op == OpPutSignal
	}
	if hasWord {
		if word, err = pe.checkWord(wordAddr); err != nil {
			return 0, nil, err
		}
	}
	switch r.op {
	case OpPut:
		pe.copyIn(r.addr, r.buf)
	case OpPutSignal:
		// The store is the release edge: whoever acquires the signal word
		// sees the whole payload. That is all the ordering the bytes have
		// and all they need, so they move as a plain copy, not as copyIn's
		// word-by-word atomic stores.
		copy(pe.bytes[r.addr:], r.buf)
		atomic.StoreUint64(word, r.v1)
	case OpGet:
		pe.copyOut(r.addr, r.buf)
		data = r.buf
	case OpGetV:
		off := 0
		for _, sp := range r.spans {
			pe.copyOut(sp.Addr, r.buf[off:off+sp.N])
			off += sp.N
		}
		data = r.buf
	case OpFetchAdd, OpAddNBI:
		val = atomic.AddUint64(word, r.v1) - r.v1
	case OpCompareSwap:
		// SHMEM's fetching compare-and-swap: returns the prior value.
		for {
			val = atomic.LoadUint64(word)
			if val != r.v1 || atomic.CompareAndSwapUint64(word, r.v1, r.v2) {
				break
			}
		}
	case OpLoad:
		val = atomic.LoadUint64(word)
	case OpStore, OpStoreNBI:
		atomic.StoreUint64(word, r.v1)
	case OpFetchAddGet:
		val = atomic.AddUint64(word, r.v1) - r.v1
		stage := r.buf
		if scratch != nil {
			stage = (*scratch)[:0]
		}
		// The handler is SPMD-registered in every process, so whoever
		// applies the op runs it against the heap directly — the
		// "NIC-side" gather, with no target CPU involved.
		if data, err = w.applyFused(pe, val, r.addr, stage); err != nil {
			return 0, nil, err
		}
		if scratch != nil && data != nil {
			*scratch = data
		}
	default:
		return 0, nil, fmt.Errorf("shmem: unknown op %d", int(r.op))
	}
	return val, data, nil
}

// target returns the PE state of rank to, which must be addressable in
// this process.
func (w *World) target(to int) (*peState, error) {
	if to < 0 || to >= len(w.pes) {
		return nil, fmt.Errorf("shmem: target PE %d out of range [0, %d)", to, len(w.pes))
	}
	return w.pes[to], nil
}

// verdict asks the configured fault injector (if any) about r. Injectors
// key a vectored get on its leading address.
func (w *World) verdict(r *opReq) Verdict {
	f := w.cfg.Fault
	if f == nil {
		return Verdict{}
	}
	addr := r.addr
	if r.op == OpGetV && len(r.spans) > 0 {
		addr = r.spans[0].Addr
	}
	return f.Before(r.op, r.from, r.to, addr)
}
