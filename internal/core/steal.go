package core

import (
	"sws/internal/shmem"
	"sws/internal/task"
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
	return q.Attempt(victim, q.stealSpanned)
}

// stealSpanned is the steal protocol body (see wsq.Slots.Attempt). Every
// remote operation goes through the span-tagged view, so the victim's
// flight journal files its half of the protocol (probe, claim, copy, ack)
// under the ID of the thief's one record of the attempt.
func (q *Queue) stealSpanned(victim int, sc shmem.SpanCtx) ([]task.Desc, wsq.Outcome, error) {
	if q.opts.Damping && q.emptyMode[victim] {
		w, err := sc.Load64(victim, q.stealvalAddr)
		if err != nil {
			return nil, wsq.Empty, err
		}
		v := q.format.Unpack(w)
		if !v.Valid {
			q.Claimed(shmem.OpLoad)
			return nil, wsq.Disabled, nil
		}
		if int(v.Asteals) >= wsq.PlanLen(v.ITasks) {
			// Still exhausted: abort after the single read-only probe.
			q.Claimed(shmem.OpLoad)
			return nil, wsq.Empty, nil
		}
		// Fresh work appeared: back to full-mode and steal for real.
		q.emptyMode[victim] = false
	}

	var old uint64
	var fusedData []byte
	var err error
	op := shmem.OpFetchAdd
	if q.opts.Fused {
		// Single round trip: claim and copy together (see Options.Fused).
		op = shmem.OpFetchAddGet
		old, fusedData, err = sc.FetchAddGet(victim, q.stealvalAddr, AstealsUnit, q.Staging(0))
	} else {
		old, err = sc.FetchAdd64(victim, q.stealvalAddr, AstealsUnit)
	}
	if err != nil {
		return nil, wsq.Empty, err
	}
	q.Claimed(op)
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
		tasks, err = q.DecodeBlock(victim, fusedData, k)
	} else {
		tasks, err = q.CopyBlock(sc, victim, start, k)
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
