package core

import (
	"fmt"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// Steal attempts to steal a block of tasks from victim's queue using the
// structured-atomic protocol (§4.1):
//
//  1. One remote atomic fetch-add increments the asteals field of the
//     victim's stealval. The fetched prior value both *discovers* the work
//     (tail, itasks, epoch, validity) and *claims* a specific block: no
//     other thief can obtain the same asteals value.
//  2. One blocking get copies the claimed block — a single vectored get
//     (GetV) when the block wraps the circular buffer, so wrapping costs
//     no extra round trip.
//  3. One non-blocking atomic store writes the block size into the
//     victim's completion array slot for this epoch and attempt, signalling
//     that the copy is done. The thief does not wait for it.
//
// With steal damping enabled (§4.3), victims that previously advertised an
// exhausted block are first probed with a read-only atomic fetch; the
// fetch-add path resumes only once the probe shows fresh work, bounding
// asteals growth on empty queues.
func (q *Queue) Steal(victim int) ([]task.Desc, wsq.Outcome, error) {
	if victim == q.ctx.Rank() {
		return nil, wsq.Empty, fmt.Errorf("core: PE %d cannot steal from itself", victim)
	}
	if victim < 0 || victim >= q.ctx.NumPEs() {
		return nil, wsq.Empty, fmt.Errorf("core: victim %d out of range [0, %d)", victim, q.ctx.NumPEs())
	}
	// Every attempt gets a fresh causal span: the sub-operations below
	// (probe, claim, copy, ack) all carry it on the wire, so the victim's
	// flight journal files its half of the protocol under the same ID and
	// post-mortem tooling can reassemble the full span tree.
	span := q.nextSpan()
	q.ctx.RecordSpanEvent(trace.StealSpanStart, int64(victim), 0, span)
	tasks, out, err := q.stealSpanned(victim, q.ctx.WithSpan(span))
	outcome := int64(len(tasks))
	switch {
	case err != nil:
		outcome = -2
	case out == wsq.Disabled:
		outcome = -1
	}
	q.ctx.RecordSpanEvent(trace.StealSpanEnd, int64(victim), outcome, span)
	return tasks, out, err
}

// nextSpan returns a fresh span ID for one steal attempt. IDs are
// deterministic per thief — (rank+1)<<48 | sequence — so the initiator is
// recoverable from the high bits, IDs never collide across ranks, and a
// span is never zero (zero marks untagged traffic).
func (q *Queue) nextSpan() uint64 {
	q.spanSeq++
	return uint64(q.ctx.Rank()+1)<<48 | (q.spanSeq & (1<<48 - 1))
}

// stealSpanned is the steal protocol body; every remote operation goes
// through the span-tagged view.
func (q *Queue) stealSpanned(victim int, sc shmem.SpanCtx) ([]task.Desc, wsq.Outcome, error) {
	if q.opts.Damping && q.emptyMode[victim] {
		w, err := sc.Load64(victim, q.stealvalAddr)
		if err != nil {
			return nil, wsq.Empty, err
		}
		v := q.format.Unpack(w)
		if !v.Valid {
			return nil, wsq.Disabled, nil
		}
		if int(v.Asteals) >= wsq.PlanLen(v.ITasks) {
			// Still exhausted: abort after the single read-only probe.
			return nil, wsq.Empty, nil
		}
		// Fresh work appeared: back to full-mode and steal for real.
		q.emptyMode[victim] = false
	}

	var old uint64
	var fusedData []byte
	var err error
	if q.opts.Fused {
		// Single round trip: claim and copy together (see Options.Fused).
		old, fusedData, err = sc.FetchAddGet(victim, q.stealvalAddr, AstealsUnit, uint64(q.stealvalAddr))
	} else {
		old, err = sc.FetchAdd64(victim, q.stealvalAddr, AstealsUnit)
	}
	if err != nil {
		return nil, wsq.Empty, err
	}
	v := q.format.Unpack(old)
	if !v.Valid {
		return nil, wsq.Disabled, nil
	}
	plan := wsq.PlanLen(v.ITasks)
	if int(v.Asteals) >= plan {
		if q.opts.Damping && v.Asteals >= uint32(plan)+DampThreshold {
			q.emptyMode[victim] = true
		}
		return nil, wsq.Empty, nil
	}

	// The fetched value fully determines the claimed block.
	k := wsq.StealHalf(v.ITasks, int(v.Asteals))
	off := wsq.StealOffset(v.ITasks, int(v.Asteals))
	start := uint64(v.Tail) + uint64(off)

	var tasks []task.Desc
	if q.opts.Fused {
		tasks, err = q.decodeBlock(victim, fusedData, k)
	} else {
		tasks, err = q.copyBlock(victim, start, k, sc)
	}
	if err != nil {
		return nil, wsq.Empty, err
	}

	// Completion notification: passive, non-blocking (§4.1–4.2). The slot
	// is addressed by the *epoch in the fetched stealval*, so a
	// notification landing after the owner has reset the queue still files
	// against the right epoch's array.
	slot := q.completionSlotAddr(v.Epoch, int(v.Asteals))
	if err := sc.Store64NBI(victim, slot, uint64(k)); err != nil {
		return nil, wsq.Empty, err
	}
	return tasks, wsq.Stolen, nil
}

// decodeBlock parses the task slots a fused steal brought back.
func (q *Queue) decodeBlock(victim int, data []byte, k int) ([]task.Desc, error) {
	slotSize := q.codec.SlotSize()
	if len(data) != k*slotSize {
		return nil, fmt.Errorf("core: fused steal from PE %d returned %d bytes, want %d (k=%d)",
			victim, len(data), k*slotSize, k)
	}
	tasks := make([]task.Desc, k)
	for i := range tasks {
		d, err := q.codec.Decode(data[i*slotSize:])
		if err != nil {
			return nil, fmt.Errorf("core: fused slot %d from PE %d: %w", i, victim, err)
		}
		tasks[i] = d
	}
	return tasks, nil
}

// copyBlock performs the blocking one-sided copy of k task slots starting
// at logical slot position start on the victim, unwrapping the circular
// buffer as needed (wrapping is computed locally: queues are symmetric, so
// no extra communication is required — §4, example point 1).
func (q *Queue) copyBlock(victim int, start uint64, k int, sc shmem.SpanCtx) ([]task.Desc, error) {
	slotSize := q.codec.SlotSize()
	if cap(q.stealBuf) < k*slotSize {
		q.stealBuf = make([]byte, k*slotSize)
	}
	buf := q.stealBuf[:k*slotSize]
	spans, n, err := q.ring.Spans(start, k)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		sp := spans[0]
		addr := q.taskAddr + shmem.Addr(sp.Start*slotSize)
		if err := sc.Get(victim, addr, buf); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < n; i++ {
			q.stealSpans[i] = shmem.Span{
				Addr: q.taskAddr + shmem.Addr(spans[i].Start*slotSize),
				N:    spans[i].Count * slotSize,
			}
		}
		if err := sc.GetV(victim, q.stealSpans[:n], buf); err != nil {
			return nil, err
		}
	}
	tasks := make([]task.Desc, k)
	for i := range tasks {
		d, err := q.codec.Decode(buf[i*slotSize:])
		if err != nil {
			return nil, fmt.Errorf("core: stolen slot %d from PE %d: %w", i, victim, err)
		}
		tasks[i] = d
	}
	return tasks, nil
}

// Probe reads the victim's stealval without claiming anything and reports
// the unclaimed task count it advertises (0 if disabled or exhausted).
// One read-only communication; used by damping and by diagnostics.
func (q *Queue) Probe(victim int) (int, error) {
	w, err := q.ctx.Load64(victim, q.stealvalAddr)
	if err != nil {
		return 0, err
	}
	v := q.format.Unpack(w)
	if !v.Valid {
		return 0, nil
	}
	return v.ITasks - wsq.StealOffset(v.ITasks, q.clampAttempts(v)), nil
}

// EmptyMode reports whether damping currently has the victim in
// empty-mode (probe-first stealing).
func (q *Queue) EmptyMode(victim int) bool { return q.emptyMode[victim] }
