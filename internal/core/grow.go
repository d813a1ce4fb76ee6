package core

// Elastic queue machinery: the epoch-guarded reseat that moves the ring
// between pre-registered size classes, the owner-local spill arena that
// absorbs overflow past the largest class, and the published geometry
// word. See DESIGN §4.15 for the protocol and its torn-ring argument.
//
// The safety story in one paragraph: every steal claim is a fetch-add on
// the stealval, and the reseat begins with a swap to the disabled word,
// so the stealval's modification order totally orders each claim against
// the close. A claim ordered before the close was harvested by retire,
// and the owner then waits for its completion store — which the thief
// issues only after its blocking copy of the old region returned — so no
// copy is in flight when the owner republishes. A claim ordered after
// the close fetched the disabled word and aborts without copying. Either
// way a thief's copy geometry comes entirely from the one word it
// fetched (class -> immutable pre-registered region), never from owner
// state that a reseat mutates.

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/ring"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Geom is the decoded form of the geometry word the owner publishes
// beside the stealval at construction and after every reseat. Thieves do
// not need it to steal (the stealval's class is self-sufficient); it
// exists for conformance oracles and post-mortem inspection, which want
// to compare an observed stealval against the geometry the owner last
// published.
type Geom struct {
	// Class is the size class in use; Capacity its ring's slot count.
	Class    int
	Capacity int
	// Reseats counts geometry changes (grows + shrinks), so an observer
	// can tell two published geometries apart even at equal class.
	Reseats int
}

const (
	geomClassBits   = 8
	geomReseatShift = 8
	geomReseatBits  = 24
	geomCapShift    = 32
)

// PackGeom encodes g: class in the low byte, reseat count above it,
// capacity in the high word.
func PackGeom(g Geom) uint64 {
	return uint64(g.Class)&(1<<geomClassBits-1) |
		uint64(g.Reseats)&(1<<geomReseatBits-1)<<geomReseatShift |
		uint64(g.Capacity)<<geomCapShift
}

// UnpackGeom decodes a geometry word.
func UnpackGeom(w uint64) Geom {
	return Geom{
		Class:    int(w & (1<<geomClassBits - 1)),
		Reseats:  int(w >> geomReseatShift & (1<<geomReseatBits - 1)),
		Capacity: int(w >> geomCapShift),
	}
}

// GeomAddr exposes the geometry word's heap address for conformance
// tests and diagnostics (same symmetric address on every PE).
func (q *Queue) GeomAddr() shmem.Addr { return q.geomAddr }

// CapacityNow and SpillDepth implement wsq.Elastic (owner-side reads).
func (q *Queue) CapacityNow() int { return q.curRing().Cap() }
func (q *Queue) SpillDepth() int  { return q.arena.len() }

var _ wsq.Elastic = (*Queue)(nil)

// Classes returns the number of pre-registered size classes (1 for a
// non-growable queue).
func (q *Queue) Classes() int { return len(q.regions) }

// ClassCapacity returns the ring capacity of a size class.
func (q *Queue) ClassCapacity(class int) (int, error) {
	if class < 0 || class >= len(q.regions) {
		return 0, fmt.Errorf("core: class %d out of range [0, %d)", class, len(q.regions))
	}
	return q.regions[class].ring.Cap(), nil
}

// CopyClaimedBlock performs the blocking-copy step of the steal protocol
// for a stealval the caller fetched manually (a raw fetch-add on the
// victim's StealvalAddr), without issuing the completion store.
// Conformance oracles use it to script races the normal Steal path closes
// in one motion — claim, copy, and acknowledge become three separately
// timed steps — most importantly a claim that straddles a reseat. Returns
// nil descriptors when the fetched attempt is past the block's plan.
func (q *Queue) CopyClaimedBlock(victim int, v Stealval) ([]task.Desc, error) {
	if !v.Valid {
		return nil, fmt.Errorf("core: cannot copy a block from an invalid stealval")
	}
	if v.Class >= len(q.regions) {
		return nil, fmt.Errorf("core: stealval names class %d, ladder has %d", v.Class, len(q.regions))
	}
	k := wsq.StealHalf(v.ITasks, int(v.Asteals))
	if k == 0 {
		return nil, nil
	}
	start := uint64(v.Tail) + uint64(wsq.StealOffset(v.ITasks, int(v.Asteals)))
	return q.copyBlock(victim, v.Class, start, k, q.ctx.WithSpan(q.nextSpan()))
}

// publishGeom stores the current geometry word (owner-side local store).
func (q *Queue) publishGeom() {
	atomic.StoreUint64(q.geom, PackGeom(Geom{
		Class:    q.cls,
		Capacity: q.curRing().Cap(),
		Reseats:  int(q.grows + q.shrinks),
	}))
}

// reseat moves the queue into size class newCls: close the epoch (swap
// the stealval to disabled), wait for every in-flight steal block to
// drain (the PR 5 force-close path covers dead thieves), copy the live
// tasks into the new class's region rebased to position zero, publish
// the new geometry, and reopen with the unclaimed remainder
// re-advertised. Owner-side only; bounded by resetPoll like any other
// epoch wait.
func (q *Queue) reseat(newCls int) error {
	start := time.Now()
	unclaimed, err := q.retire()
	if err != nil {
		return err
	}
	// Wait-for-all: any claim that beat the disabling swap must land its
	// completion store (issued after its blocking copy finished) before
	// the ring moves. waitParityFree(-1) reuses the force-close path, so
	// a dead thief's missing store cannot wedge the reseat.
	if err := q.waitParityFree(-1); err != nil {
		return err
	}
	if q.rtail != q.stail || len(q.recs) != 0 {
		return fmt.Errorf("core: reseat after drain finds rtail %d, stail %d, %d epoch records",
			q.rtail, q.stail, len(q.recs))
	}
	live := ring.Distance(q.stail, q.head)
	if c := q.regions[newCls].ring.Cap(); live > c {
		return fmt.Errorf("core: reseat to class %d (%d slots) with %d live tasks", newCls, c, live)
	}
	if err := q.copyRegion(newCls, live); err != nil {
		return err
	}
	// Rebase the logical positions so the new ring starts at zero:
	// [0, split) is the unclaimed shared remainder, [split, head) local.
	q.split = uint64(ring.Distance(q.stail, q.split))
	q.head = uint64(live)
	q.rtail, q.stail = 0, 0
	if newCls > q.cls {
		q.grows++
	} else {
		q.shrinks++
	}
	q.cls = newCls
	q.publishGeom()
	if err := q.startEpoch(unclaimed); err != nil {
		return err
	}
	q.growLat.Record(time.Since(start))
	return nil
}

// copyRegion copies the live window [stail, stail+live) of the current
// ring into the first live slots of newCls's region. Both regions are this
// PE's own memory, and the reseat has drained every in-flight steal, so
// these are plain copies.
func (q *Queue) copyRegion(newCls, live int) error {
	slotSize := q.codec.SlotSize()
	src, dst := q.regions[q.cls], q.regions[newCls]
	spans, n, err := src.ring.Spans(q.stail, live)
	if err != nil {
		return err
	}
	dstOff := 0
	for _, sp := range spans[:n] {
		dstOff += copy(dst.own[dstOff:], src.own[sp.Start*slotSize:(sp.Start+sp.Count)*slotSize])
	}
	return nil
}

// spill encodes d into the side arena. Only reachable on growable queues
// whose largest region is full (and, by the LIFO invariant, while any
// earlier spill remains).
func (q *Queue) spill(d task.Desc) error {
	if err := q.codec.Encode(q.scratch, d); err != nil {
		return err
	}
	q.arena.pushNewest(q.scratch)
	q.spilled++
	return nil
}

// unspill refills the ring from the arena, oldest spill first. All ring
// tasks predate all arena tasks, so appending the arena's oldest at the
// ring head preserves global LIFO order; it also returns parked work to
// where remote thieves can reach it once the owner releases.
func (q *Queue) unspill() error {
	for q.arena.len() > 0 {
		if q.free() == 0 {
			if err := q.Progress(); err != nil {
				return err
			}
			if q.free() == 0 {
				return nil // still full; try again next scheduler pass
			}
		}
		buf, ok := q.arena.peekOldest()
		if !ok {
			return nil
		}
		copy(q.slot(q.head), buf)
		q.head++
		q.arena.dropOldest()
		q.unspilled++
	}
	return nil
}

// maybeShrink folds the ring back to the next-smaller class when
// occupancy has collapsed. It fires only when the advertised block is
// empty and no older epoch is draining, which makes the reseat's
// wait-for-all vacuous: a shrink never blocks the owner. The quarter-of-
// target threshold leaves a 4x hysteresis band against regrow thrash.
func (q *Queue) maybeShrink() error {
	if q.cls == 0 || q.arena.len() > 0 || len(q.recs) != 1 {
		return nil
	}
	if cur := q.cur(); cur.retired() || cur.itasks != 0 {
		return nil
	}
	if ring.Distance(q.rtail, q.head) > q.regions[q.cls-1].ring.Cap()/4 {
		return nil
	}
	return q.reseat(q.cls - 1)
}

// spillArena is the owner-local overflow store: fixed-size blocks of
// encoded task slots, a deque so the owner pops newest (LIFO execution)
// while unspill drains oldest (order-preserving refill).
type spillArena struct {
	slotSize   int
	blockSlots int
	blocks     []*spillBlock // oldest first
	total      int
	spare      *spillBlock // one retired block kept to damp alloc churn
}

type spillBlock struct {
	buf    []byte
	lo, hi int // live slots are [lo, hi)
}

func (a *spillArena) init(slotSize, blockSlots int) {
	a.slotSize = slotSize
	a.blockSlots = blockSlots
}

func (a *spillArena) len() int { return a.total }

func (a *spillArena) pushNewest(src []byte) {
	var b *spillBlock
	if n := len(a.blocks); n > 0 && a.blocks[n-1].hi < a.blockSlots {
		b = a.blocks[n-1]
	} else {
		if b = a.spare; b != nil {
			a.spare = nil
			b.lo, b.hi = 0, 0
		} else {
			b = &spillBlock{buf: make([]byte, a.blockSlots*a.slotSize)}
		}
		a.blocks = append(a.blocks, b)
	}
	copy(b.buf[b.hi*a.slotSize:(b.hi+1)*a.slotSize], src)
	b.hi++
	a.total++
}

// popNewest returns a view of the newest slot, valid until the next
// arena operation.
func (a *spillArena) popNewest() ([]byte, bool) {
	n := len(a.blocks)
	if n == 0 {
		return nil, false
	}
	b := a.blocks[n-1]
	b.hi--
	a.total--
	out := b.buf[b.hi*a.slotSize : (b.hi+1)*a.slotSize]
	if b.hi == b.lo {
		a.blocks = a.blocks[:n-1]
		a.spare = b
	}
	return out, true
}

// peekOldest returns a view of the oldest slot without removing it.
func (a *spillArena) peekOldest() ([]byte, bool) {
	if len(a.blocks) == 0 {
		return nil, false
	}
	b := a.blocks[0]
	return b.buf[b.lo*a.slotSize : (b.lo+1)*a.slotSize], true
}

func (a *spillArena) dropOldest() {
	if len(a.blocks) == 0 {
		return
	}
	b := a.blocks[0]
	b.lo++
	a.total--
	if b.lo == b.hi {
		a.blocks = a.blocks[1:]
		a.spare = b
	}
}
