// Package sdc implements the baseline work-stealing queue the paper
// compares against: Scioto's best-performing configuration, "Split Queues
// with Deferred Copies and Aborting Steals" (§3).
//
// The queue is the split circular buffer of internal/wsq (wsq.Slots, shared
// with the SWS queue), guarded for remote access by an application-level
// spinlock. A steal requires six one-sided communications, five of them
// blocking (Figure 2):
//
//  1. acquire the remote queue lock        (atomic compare-and-swap)
//  2. fetch tail/sequence/split metadata   (get, 24 bytes)
//  3. advance the tail past the claim      (put, 16 bytes incl. sequence)
//  4. release the lock                     (atomic store)
//  5. copy the stolen task slots           (get; getv when it wraps)
//  6. signal steal completion              (non-blocking atomic store)
//
// The "deferred copy" is step 6: the thief copies tasks after unlocking
// and acknowledges asynchronously, so the owner reclaims buffer space
// lazily in Progress. "Aborting steals" show up in two places: a thief
// that finds no shared work unlocks and walks away, and a thief spinning
// on a contended lock polls the metadata and abandons the attempt if the
// work disappears.
//
// Local enqueue/dequeue, release, and acquire match the Scioto design:
// purely local, with only the acquire taking the lock (it moves the split
// point that concurrent thieves read under that lock).
package sdc

import (
	"fmt"
	"sync/atomic"

	"sws/internal/ring"
	"sws/internal/shmem"
	"sws/internal/wsq"
)

// Options configures an SDC queue.
type Options struct {
	// Capacity is the number of task slots. Default wsq.DefaultCapacity.
	Capacity int
	// PayloadCap is the per-task payload capacity in bytes. Default
	// wsq.DefaultPayloadCap.
	PayloadCap int
	// LockAttempts bounds how long a thief spins on a contended lock
	// before abandoning the steal attempt. Default 256.
	LockAttempts int
	// ProbeEvery is how many failed lock attempts pass between metadata
	// polls while spinning (the aborting-steals optimization). Default 8.
	ProbeEvery int
}

func (o *Options) setDefaults() {
	if o.LockAttempts == 0 {
		o.LockAttempts = 256
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 8
	}
}

// Metadata word layout within the symmetric region.
const (
	lockWord  = 0 // 0 = free, holder rank+1 otherwise
	tailWord  = 1 // logical position of the oldest unclaimed shared task
	seqWord   = 2 // number of steals ever claimed (records ring cursor)
	splitWord = 3 // logical boundary between shared and local portions
	numMeta   = 4
)

// Queue is one PE's SDC task queue: the split buffer both protocols share
// (wsq.Slots: slots, owner push and pop, the thief's block copy), claimed
// under a lock through the metadata words and reclaimed through steal
// records. Owner methods are single-goroutine; Steal is thief-side and
// touches only the victim's heap.
type Queue struct {
	wsq.Slots

	ctx  *shmem.Ctx
	opts Options

	// Symmetric layout (identical offsets on every PE); the task slots
	// follow them.
	metaAddr shmem.Addr // numMeta words
	recsAddr shmem.Addr // Capacity words: completion records, seq % cap

	// The same words in the owner's own heap, as memory (see
	// shmem.Ctx.OwnWords): owner ops use sync/atomic on them, as thieves
	// also reach them. The heap tail trails Split (thieves advance it under
	// the lock) and RTail trails the tail; Split is mirrored in the heap
	// for thieves, but only the owner writes it.
	meta []uint64
	recs []uint64

	reclaimSeq uint64 // completion records consumed so far

	wire [3 * shmem.WordSize]byte // a thief's metadata get and put, reused

	// Owner/thief statistics.
	lockContended uint64
	abortedSteals uint64
}

var _ wsq.Queue = (*Queue)(nil)

// NewQueue collectively constructs the queue; every PE must call it with
// identical options.
func NewQueue(ctx *shmem.Ctx, opts Options) (*Queue, error) {
	opts.setDefaults()
	q := &Queue{ctx: ctx, opts: opts}
	err := q.Init(ctx, opts.Capacity, opts.PayloadCap, q)
	if err != nil {
		return nil, err
	}
	capacity := q.Ring().Cap()
	if q.metaAddr, err = ctx.Alloc(numMeta * shmem.WordSize); err != nil {
		return nil, err
	}
	if q.recsAddr, err = ctx.Alloc(capacity * shmem.WordSize); err != nil {
		return nil, err
	}
	if q.meta, err = ctx.OwnWords(q.metaAddr, numMeta); err != nil {
		return nil, err
	}
	if q.recs, err = ctx.OwnWords(q.recsAddr, capacity); err != nil {
		return nil, err
	}
	if err := q.AllocSlots(); err != nil {
		return nil, err
	}
	return q, nil
}

func (q *Queue) metaWordAddr(w int) shmem.Addr {
	return q.metaAddr + shmem.Addr(w*shmem.WordSize)
}

func (q *Queue) recAddr(seq uint64) shmem.Addr {
	return q.recsAddr + shmem.Addr(q.Ring().Slot(seq)*shmem.WordSize)
}

// loadTail reads the heap tail (an atomic on the owner's own heap).
func (q *Queue) loadTail() uint64 { return atomic.LoadUint64(&q.meta[tailWord]) }

// SharedAvail returns the owner's view of unclaimed shared tasks.
func (q *Queue) SharedAvail() int { return ring.Distance(q.loadTail(), q.Split) }

// ReleaseDue reports whether Release would expose work: two or more local
// tasks and an empty shared portion.
func (q *Queue) ReleaseDue() bool {
	return q.LocalCount() >= 2 && q.SharedAvail() == 0
}

// Release exposes half of the local tasks when the shared portion is
// empty. Lock-free: a concurrent thief that fetched metadata before the
// release sees the empty shared portion and aborts, so only the split
// word needs an atomic update (§3.1).
func (q *Queue) Release() (int, error) {
	if !q.ReleaseDue() {
		return 0, nil
	}
	moved := q.LocalCount() / 2
	q.Split += uint64(moved)
	atomic.StoreUint64(&q.meta[splitWord], q.Split)
	return moved, nil
}

// Acquire moves half of the unclaimed shared tasks into the local portion
// when the local portion is empty. The split point is read by thieves
// under the lock, so the owner must hold the lock for the update (§3.1).
func (q *Queue) Acquire() (int, error) {
	if q.LocalCount() != 0 {
		return 0, nil
	}
	if err := q.lockOwn(); err != nil {
		return 0, err
	}
	defer q.unlockOwn()
	avail := ring.Distance(q.loadTail(), q.Split)
	if avail == 0 {
		return 0, nil
	}
	moved := (avail + 1) / 2
	q.Split -= uint64(moved)
	atomic.StoreUint64(&q.meta[splitWord], q.Split)
	return moved, nil
}

// lockOwn spins on the owner's own lock word (local atomics, cheap),
// polling a Wait between attempts so the holder, a thief mid-protocol, gets
// the core (or the sim's turn) to release it. A holder declared dead never
// will: that fails with an error wrapping shmem.ErrPeerDead.
func (q *Queue) lockOwn() error {
	me := uint64(q.ctx.Rank() + 1)
	wait := q.ctx.NewWait(0)
	for !atomic.CompareAndSwapUint64(&q.meta[lockWord], 0, me) {
		if err := q.ctx.Err(); err != nil {
			return err
		}
		lv := q.ctx.Liveness()
		if holder := int(atomic.LoadUint64(&q.meta[lockWord])) - 1; lv.AnyDead() && holder >= 0 && !lv.Alive(holder) {
			return fmt.Errorf("sdc: PE %d's queue lock is held by PE %d: %w", me-1, holder, shmem.ErrPeerDead)
		}
		wait.Poll()
	}
	return nil
}

func (q *Queue) unlockOwn() { atomic.StoreUint64(&q.meta[lockWord], 0) }

// Progress consumes completion records in claim order and reclaims buffer
// space past fully acknowledged steals (the deferred-copy bookkeeping,
// §3.1). Local-only.
func (q *Queue) Progress() error {
	for {
		rec := &q.recs[q.Ring().Slot(q.reclaimSeq)]
		v := atomic.LoadUint64(rec)
		if v == 0 {
			return nil // oldest steal not yet acknowledged
		}
		atomic.StoreUint64(rec, 0)
		q.RTail += v
		q.reclaimSeq++
		if q.RTail > q.Split {
			return fmt.Errorf("sdc: reclaim boundary %d passed split %d", q.RTail, q.Split)
		}
	}
}

// Stats reports protocol counters for diagnostics.
type Stats struct {
	LockContended uint64 // steal attempts that found the lock held
	AbortedSteals uint64 // attempts abandoned while spinning
}

// Stats returns thief-side counters accumulated by this PE's steals.
func (q *Queue) Stats() Stats {
	return Stats{LockContended: q.lockContended, AbortedSteals: q.abortedSteals}
}
