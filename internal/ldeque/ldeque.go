// Package ldeque provides the shared part of a multi-worker PE's intra-PE
// split: a bounded, lock-free, multi-producer/multi-consumer task ring.
//
// Inside a PE the pool applies the paper's split queue once more. Every
// worker keeps its tasks in a private part only it touches (the owner in
// the protocol queue's local portion, an executor in a deque of its own),
// and a task enters this ring only when it changes hands: a worker with
// two or more private tasks tops the ring up when it runs below one task
// per worker, and a worker whose private part came up empty takes from it.
// The ring is therefore not on a task's path — synchronization is paid per
// transfer, a few per cent of tasks on a tree-shaped workload — and it
// keeps the expensive SWS stealval protocol for the inter-PE tier only
// (steal locally before going remote, as in Wimmer & Träff's mixed-mode
// scheduling and the localized-stealing analysis of Suksompong et al.).
//
// Any worker may be the producer and any worker the consumer, so the ring
// is the classic bounded MPMC queue with per-slot sequence numbers
// (Vyukov): each operation is one CAS plus two loads, no locks, and every
// task is handed to exactly one consumer — the property the pool's
// exactly-once oracle rests on.
//
// The ring is bounded and shallow on purpose: it carries work between
// workers, it does not store it. A PE's surplus stays in the private
// parts, and the owner's is the one remote thieves can see.
package ldeque

import (
	"fmt"
	"sync/atomic"

	"sws/internal/task"
)

// slot is one ring entry. seq encodes the slot's state relative to the
// cursors: seq == pos means ready for a producer at pos; seq == pos+1
// means ready for the consumer at pos; otherwise the slot is in use by a
// lapped operation.
type slot struct {
	seq atomic.Uint64
	d   task.Desc
}

// Queue is a bounded MPMC task ring. The zero value is not usable; call
// New. All methods are safe for concurrent use by any number of
// goroutines.
type Queue struct {
	mask  uint64
	slots []slot

	// enq and deq are the producer and consumer cursors. They are padded
	// apart so producers and consumers do not false-share a cache line.
	enq atomic.Uint64
	_   [56]byte
	deq atomic.Uint64
	_   [56]byte
}

// New returns a ring with at least the requested capacity, rounded up to
// a power of two (minimum 2).
func New(capacity int) (*Queue, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("ldeque: capacity %d < 1", capacity)
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &Queue{mask: uint64(n - 1), slots: make([]slot, n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q, nil
}

// MustNew is New for capacities known valid at compile time.
func MustNew(capacity int) *Queue {
	q, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return q
}

// TryPush enqueues d, reporting false when the ring is full. The queue
// takes ownership of d.Payload: the caller must not modify it afterwards
// (the pool copies payloads it does not own before pushing).
func (q *Queue) TryPush(d task.Desc) bool {
	pos := q.enq.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch dif := int64(seq) - int64(pos); {
		case dif == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				s.d = d
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case dif < 0:
			// The consumer a full lap behind has not freed the slot: full.
			return false
		default:
			pos = q.enq.Load()
		}
	}
}

// TryPop dequeues one task, reporting false when the ring is empty. The
// returned descriptor is owned by the caller.
func (q *Queue) TryPop() (task.Desc, bool) {
	pos := q.deq.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch dif := int64(seq) - int64(pos+1); {
		case dif == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				d := s.d
				s.d = task.Desc{} // drop the payload reference for the GC
				s.seq.Store(pos + q.mask + 1)
				return d, true
			}
			pos = q.deq.Load()
		case dif < 0:
			return task.Desc{}, false
		default:
			pos = q.deq.Load()
		}
	}
}

// Len returns the approximate number of queued tasks. It is exact when no
// operation is concurrently in flight and never negative.
func (q *Queue) Len() int {
	d := int64(q.enq.Load()) - int64(q.deq.Load())
	if d < 0 {
		return 0
	}
	if d > int64(len(q.slots)) {
		return len(q.slots)
	}
	return int(d)
}

// Cap returns the ring capacity.
func (q *Queue) Cap() int { return len(q.slots) }
