package sdc

import (
	"encoding/binary"
	"fmt"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Steal attempts to steal half of the victim's shared tasks with the
// six-communication SDC protocol (see the package comment). It returns
// Empty if the victim advertised no work, and Disabled if the lock stayed
// contended past Options.LockAttempts.
func (q *Queue) Steal(victim int) ([]task.Desc, wsq.Outcome, error) {
	return q.Attempt(victim, q.steal)
}

// steal is Steal's protocol body (see wsq.Slots.Attempt). Its ops carry no
// span, so the victim journals none of them; the thief's record stands
// alone.
func (q *Queue) steal(victim int, _ shmem.SpanCtx) ([]task.Desc, wsq.Outcome, error) {
	// (1) Acquire the remote lock, polling metadata while contended so an
	// emptied queue aborts the attempt early.
	ok, out, err := q.lockRemote(victim)
	if err != nil {
		return nil, wsq.Empty, err
	}
	if !ok {
		return nil, out, nil
	}

	// (2) Fetch tail, sequence, and split in one 24-byte get.
	meta := q.wire[:]
	if err := q.ctx.Get(victim, q.metaWordAddr(tailWord), meta); err != nil {
		q.unlockRemote(victim)
		return nil, wsq.Empty, err
	}
	tail := binary.NativeEndian.Uint64(meta[0:8])
	seq := binary.NativeEndian.Uint64(meta[8:16])
	split := binary.NativeEndian.Uint64(meta[16:24])
	if split < tail {
		q.unlockRemote(victim)
		return nil, wsq.Empty, fmt.Errorf("sdc: victim %d metadata inverted: tail=%d split=%d", victim, tail, split)
	}
	avail := int(split - tail)
	if avail == 0 {
		// Aborting steal: nothing shared; unlock and walk away.
		q.unlockRemote(victim)
		return nil, wsq.Empty, nil
	}

	// Steal half, as SWS does, so the comparison isolates the
	// communication structure.
	k := wsq.StealHalf(avail, 0)

	// (3) Advance tail and bump the steal sequence in one 16-byte put.
	upd := q.wire[:2*shmem.WordSize]
	binary.NativeEndian.PutUint64(upd[0:8], tail+uint64(k))
	binary.NativeEndian.PutUint64(upd[8:16], seq+1)
	if err := q.ctx.Put(victim, q.metaWordAddr(tailWord), upd); err != nil {
		q.unlockRemote(victim)
		return nil, wsq.Empty, err
	}

	// (4) Release the lock. The claim is durable; the copy is deferred.
	if err := q.ctx.Store64(victim, q.metaWordAddr(lockWord), 0); err != nil {
		return nil, wsq.Empty, err
	}
	q.Claimed(shmem.OpCompareSwap)

	// (5) Copy the claimed block: one get, or one getv when it wraps.
	tasks, err := q.CopyBlock(q.ctx.WithSpan(0), victim, tail, k)
	if err != nil {
		return nil, wsq.Empty, err
	}

	// (6) Deferred completion: non-blocking store of the claim size into
	// the record slot for this steal's sequence number.
	if err := q.ctx.Store64NBI(victim, q.recAddr(seq), uint64(k)); err != nil {
		return nil, wsq.Empty, err
	}
	return tasks, wsq.Stolen, nil
}

// lockRemote spins on the victim's lock. It returns ok=false with an
// outcome when the attempt should be abandoned: Empty if a metadata poll
// saw no shared work (abort), Disabled if the lock stayed held for the
// whole budget.
func (q *Queue) lockRemote(victim int) (bool, wsq.Outcome, error) {
	me := uint64(q.ctx.Rank() + 1)
	for attempt := 0; attempt < q.opts.LockAttempts; attempt++ {
		got, err := q.ctx.CompareSwap64(victim, q.metaWordAddr(lockWord), 0, me)
		if err != nil {
			return false, wsq.Empty, err
		}
		if got == 0 {
			return true, wsq.Stolen, nil
		}
		if attempt == 0 {
			q.lockContended++
		}
		if (attempt+1)%q.opts.ProbeEvery == 0 {
			// Aborting steals: poll the metadata without the lock; if the
			// shared portion emptied, give up now.
			meta := q.wire[:]
			if err := q.ctx.Get(victim, q.metaWordAddr(tailWord), meta); err != nil {
				return false, wsq.Empty, err
			}
			tail := binary.NativeEndian.Uint64(meta[0:8])
			split := binary.NativeEndian.Uint64(meta[16:24])
			if split <= tail {
				q.abortedSteals++
				return false, wsq.Empty, nil
			}
		}
	}
	q.abortedSteals++
	return false, wsq.Disabled, nil
}

func (q *Queue) unlockRemote(victim int) {
	// Best-effort: the address is validated, and a transport failure has
	// already poisoned the world.
	_ = q.ctx.Store64(victim, q.metaWordAddr(lockWord), 0)
}
