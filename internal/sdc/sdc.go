// Package sdc implements the baseline work-stealing queue the paper
// compares against: Scioto's best-performing configuration, "Split Queues
// with Deferred Copies and Aborting Steals" (§3).
//
// The queue is a split circular buffer in the symmetric heap, guarded for
// remote access by an application-level spinlock. A steal requires six
// one-sided communications, five of them blocking (Figure 2):
//
//  1. acquire the remote queue lock        (atomic compare-and-swap)
//  2. fetch tail/sequence/split metadata   (get, 24 bytes)
//  3. advance the tail past the claim      (put, 16 bytes incl. sequence)
//  4. release the lock                     (atomic store)
//  5. copy the stolen task slots           (get)
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
	"errors"
	"fmt"
	"sync/atomic"

	"sws/internal/ring"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Options configures an SDC queue.
type Options struct {
	// Capacity is the number of task slots. Default 8192.
	Capacity int
	// PayloadCap is the per-task payload capacity in bytes. Default 24.
	PayloadCap int
	// LockAttempts bounds how long a thief spins on a contended lock
	// before abandoning the steal attempt. Default 256.
	LockAttempts int
	// ProbeEvery is how many failed lock attempts pass between metadata
	// polls while spinning (the aborting-steals optimization). Default 8.
	ProbeEvery int
}

func (o *Options) setDefaults() {
	if o.Capacity == 0 {
		o.Capacity = 8192
	}
	if o.PayloadCap == 0 {
		o.PayloadCap = 24
	}
	if o.LockAttempts == 0 {
		o.LockAttempts = 256
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 8
	}
}

// ErrFull is returned by Push when no slot is free even after reclaiming
// completed steals.
var ErrFull = errors.New("sdc: task queue full")

// Metadata word layout within the symmetric region.
const (
	lockWord  = 0 // 0 = free, holder rank+1 otherwise
	tailWord  = 1 // logical position of the oldest unclaimed shared task
	seqWord   = 2 // number of steals ever claimed (records ring cursor)
	splitWord = 3 // logical boundary between shared and local portions
	numMeta   = 4
)

// Queue is one PE's SDC task queue. Owner methods are single-goroutine;
// Steal is thief-side and touches only the victim's heap.
type Queue struct {
	ctx   *shmem.Ctx
	opts  Options
	codec task.Codec
	ring  ring.Ring

	metaAddr shmem.Addr // numMeta words
	recsAddr shmem.Addr // Capacity words: completion records, seq % cap
	taskAddr shmem.Addr

	// The same three objects in the owner's own heap, as memory (see
	// shmem.Ctx.OwnWords): owner ops use sync/atomic on the words thieves
	// also reach, and plain access on slots of the local portion.
	meta  []uint64
	recs  []uint64
	slots []byte

	// Owner-side logical positions. tail lives in the heap (thieves
	// advance it under the lock); split is mirrored in the heap for
	// thieves but only the owner writes it.
	head  uint64
	split uint64
	rtail uint64 // reclaim boundary (trails the heap tail)

	reclaimSeq uint64 // completion records consumed so far

	popBuf []byte // payload of the last popped task (see wsq.Queue.Pop)

	// Owner/thief statistics.
	lockContended uint64
	abortedSteals uint64
}

var _ wsq.Queue = (*Queue)(nil)

// NewQueue collectively constructs the queue; every PE must call it with
// identical options.
func NewQueue(ctx *shmem.Ctx, opts Options) (*Queue, error) {
	opts.setDefaults()
	if opts.Capacity < 2 {
		return nil, fmt.Errorf("sdc: capacity %d too small", opts.Capacity)
	}
	codec, err := task.NewCodec(opts.PayloadCap)
	if err != nil {
		return nil, err
	}
	rg, err := ring.New(opts.Capacity)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		ctx:    ctx,
		opts:   opts,
		codec:  codec,
		ring:   rg,
		popBuf: wsq.NewPopBuf(codec.PayloadCap()),
	}
	if q.metaAddr, err = ctx.Alloc(numMeta * shmem.WordSize); err != nil {
		return nil, err
	}
	if q.recsAddr, err = ctx.Alloc(opts.Capacity * shmem.WordSize); err != nil {
		return nil, err
	}
	if q.taskAddr, err = ctx.Alloc(opts.Capacity * codec.SlotSize()); err != nil {
		return nil, err
	}
	if q.meta, err = ctx.OwnWords(q.metaAddr, numMeta); err != nil {
		return nil, err
	}
	if q.recs, err = ctx.OwnWords(q.recsAddr, opts.Capacity); err != nil {
		return nil, err
	}
	if q.slots, err = ctx.OwnBytes(q.taskAddr, opts.Capacity*codec.SlotSize()); err != nil {
		return nil, err
	}
	return q, nil
}

func (q *Queue) metaWordAddr(w int) shmem.Addr {
	return q.metaAddr + shmem.Addr(w*shmem.WordSize)
}

func (q *Queue) recAddr(seq uint64) shmem.Addr {
	return q.recsAddr + shmem.Addr(int(seq%uint64(q.opts.Capacity))*shmem.WordSize)
}

// slot returns the owner's own memory for the slot at a logical position.
func (q *Queue) slot(pos uint64) []byte {
	n := q.codec.SlotSize()
	off := q.ring.Slot(pos) * n
	return q.slots[off : off+n : off+n]
}

// loadTail reads the heap tail (an atomic on the owner's own heap).
func (q *Queue) loadTail() uint64 { return atomic.LoadUint64(&q.meta[tailWord]) }

// LocalCount returns the number of tasks in the local portion.
func (q *Queue) LocalCount() int { return ring.Distance(q.split, q.head) }

// SharedAvail returns the owner's view of unclaimed shared tasks.
func (q *Queue) SharedAvail() int { return ring.Distance(q.loadTail(), q.split) }

func (q *Queue) free() int { return q.ring.Cap() - ring.Distance(q.rtail, q.head) }

// Push enqueues a task at the head of the local portion (local-only, no
// lock — §3.1).
func (q *Queue) Push(d task.Desc) error {
	if q.free() == 0 {
		if err := q.Progress(); err != nil {
			return err
		}
		if q.free() == 0 {
			return ErrFull
		}
	}
	if err := q.codec.Encode(q.slot(q.head), d); err != nil {
		return err
	}
	q.head++
	return nil
}

// Pop removes the newest local task (LIFO, local-only, no lock — §3.1).
func (q *Queue) Pop() (task.Desc, bool, error) {
	if q.head == q.split {
		return task.Desc{}, false, nil
	}
	d, err := q.codec.DecodeTo(q.slot(q.head-1), q.popBuf)
	if err != nil {
		return task.Desc{}, false, err
	}
	q.head--
	return d, true, nil
}

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
	q.split += uint64(moved)
	atomic.StoreUint64(&q.meta[splitWord], q.split)
	return moved, nil
}

// Acquire moves half of the unclaimed shared tasks into the local portion
// when the local portion is empty. The split point is read by thieves
// under the lock, so the owner must hold the lock for the update (§3.1).
func (q *Queue) Acquire() (int, error) {
	if q.LocalCount() != 0 {
		return 0, nil
	}
	q.lockOwn()
	defer q.unlockOwn()
	avail := ring.Distance(q.loadTail(), q.split)
	if avail == 0 {
		return 0, nil
	}
	moved := (avail + 1) / 2
	q.split -= uint64(moved)
	atomic.StoreUint64(&q.meta[splitWord], q.split)
	return moved, nil
}

// lockOwn spins on the owner's own lock word (local atomics, cheap). It
// must yield between attempts: the holder is a remote thief mid-protocol,
// and on hosts with fewer cores than PEs the thief needs the core to
// finish its critical section and release the lock. Under the lockstep sim
// only the PE's own Yield hands the turn to the thief.
func (q *Queue) lockOwn() {
	me := uint64(q.ctx.Rank() + 1)
	for !atomic.CompareAndSwapUint64(&q.meta[lockWord], 0, me) {
		q.ctx.Yield(true)
	}
}

func (q *Queue) unlockOwn() { atomic.StoreUint64(&q.meta[lockWord], 0) }

// Progress consumes completion records in claim order and reclaims buffer
// space past fully acknowledged steals (the deferred-copy bookkeeping,
// §3.1). Local-only.
func (q *Queue) Progress() error {
	for {
		rec := &q.recs[q.reclaimSeq%uint64(q.opts.Capacity)]
		v := atomic.LoadUint64(rec)
		if v == 0 {
			return nil // oldest steal not yet acknowledged
		}
		atomic.StoreUint64(rec, 0)
		q.rtail += v
		q.reclaimSeq++
		if q.rtail > q.split {
			return fmt.Errorf("sdc: reclaim boundary %d passed split %d", q.rtail, q.split)
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
