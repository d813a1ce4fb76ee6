package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/ring"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Options configures an SWS queue. The zero value is completed by
// defaults; see the field comments.
type Options struct {
	// Capacity is the number of task slots in the circular buffer.
	// Default 8192. Bounded by the stealval tail-field width.
	Capacity int
	// PayloadCap is the per-task payload capacity in bytes. Default 24
	// (with the 8-byte header that is the paper's 32-byte BPC task).
	PayloadCap int
	// Epochs selects completion epochs (stealval format V2, the paper's
	// §4.2 refinement). Disable to get the §4.1 behaviour: the owner
	// waits for all in-flight steals before each queue reset.
	Epochs bool
	// Damping enables steal damping (§4.3): thieves probe targets that
	// repeatedly turned up empty with a read-only fetch.
	Damping bool
	// Fused enables single-round-trip steals through the substrate's
	// programmable-NIC emulation (shmem.FetchAddGet): the claim fetch-add
	// and the dependent task copy complete in ONE blocking communication,
	// emulating the Portals-offload predecessor the paper cites (§1,
	// "Accelerated Work Stealing"). Requires interconnect support the
	// paper deliberately avoids assuming — provided here as an ablation
	// beyond SWS.
	Fused bool
}

// DampThreshold is the asteals overshoot beyond the steal plan that flips
// a target into empty-mode (§4.3).
const DampThreshold = 4

func (o *Options) setDefaults() {
	if o.Capacity == 0 {
		o.Capacity = 8192
	}
	if o.PayloadCap == 0 {
		o.PayloadCap = 24
	}
}

// DefaultOptions returns the options used by the paper-style benchmarks:
// epochs and damping on.
func DefaultOptions() Options {
	return Options{Epochs: true, Damping: true}
}

// ErrFull is returned (wrapped, with the queue's capacity and owning
// rank) by Push when no slot is free even after reclaiming completed
// steals. Match with errors.Is: the queue does nothing else about it, and
// the runtime above keeps the task (internal/pool's overflow deque).
var ErrFull = errors.New("core: task queue full")

// errFull wraps ErrFull with the diagnostics a multi-PE log needs: which
// rank's queue filled up, and at what capacity.
func (q *Queue) errFull() error {
	return fmt.Errorf("core: task queue full (capacity %d, rank %d): %w",
		q.ring.Cap(), q.ctx.Rank(), ErrFull)
}

// epochRec tracks one published shared block until all claims against it
// have signalled completion and its space has been reclaimed.
type epochRec struct {
	start  uint64 // logical position of the block's first task
	itasks int    // tasks initially shared in this block
	parity int    // completion-array index (epoch % MaxEpochs)

	// claimed* are fixed when the block's stealval is retired (swapped
	// out); until then claimedBlocks is -1.
	claimedBlocks int
	claimedTasks  int

	reclaimedBlocks int // prefix of claimed blocks whose space was reclaimed
}

func (r *epochRec) retired() bool { return r.claimedBlocks >= 0 }
func (r *epochRec) drained() bool {
	return r.retired() && r.reclaimedBlocks == r.claimedBlocks
}

// Queue is one PE's SWS task queue: a split circular buffer of task slots
// in the symmetric heap, fronted by the packed stealval and per-epoch
// completion arrays. Owner methods must only be called from the owning
// PE's goroutine; Steal is thief-side.
type Queue struct {
	ctx    *shmem.Ctx
	opts   Options
	format Format
	codec  task.Codec
	ring   ring.Ring

	// Symmetric layout (identical offsets on every PE).
	stealvalAddr   shmem.Addr
	completionAddr shmem.Addr // MaxEpochs * wsq.MaxPlanLen words
	taskAddr       shmem.Addr // Capacity task slots

	// The same objects in the owner's own heap, as memory: a PE's own
	// symmetric heap needs no communication layer, so owner ops use
	// sync/atomic on the words directly (thieves reach them through
	// one-sided ops, hence atomic, never plain) and encode into and decode
	// out of the slots in place.
	stealval   *uint64
	completion []uint64
	slots      []byte

	// Owner-side logical positions: rtail <= stail <= split <= head.
	// [rtail, stail)  claimed by older epochs, awaiting completion;
	// [stail, split)  the current shared block;
	// [split, head)   the local portion.
	head  uint64
	split uint64
	stail uint64
	rtail uint64

	curEpoch int        // monotonic epoch counter (parity indexes arrays)
	recs     []epochRec // oldest-first; last entry is the current block
	maxIT    int        // cap on an advertised block
	// plan is the current block's steal plan as the owner reads it:
	// plan[i] = wsq.StealOffset(itasks, i) for i = 0..wsq.PlanLen(itasks).
	// startEpoch builds it when it publishes the block, so the per-task
	// SharedAvail and retire index it instead of re-walking the plan;
	// thieves derive their own plan from the word they fetched.
	plan []int

	// Thief-side damping state: per-victim mode (false=full, true=empty).
	emptyMode []bool

	// spanSeq numbers this thief's steal attempts; combined with the rank
	// it forms the causal span ID stamped on each attempt's sub-ops.
	spanSeq uint64

	// popBuf holds the payload of the last popped task (see Pop).
	popBuf []byte

	// stealBuf and stealSpans are thief-side staging reused across Steal
	// calls (a Queue handle is driven by one goroutine, so reuse is safe).
	stealBuf   []byte
	stealSpans [2]shmem.Span

	// ownerStats are maintained by owner operations for introspection.
	releases, acquires, resetPolls uint64
	// forceClosed/writtenOff track epochs force-closed after a thief died
	// mid-steal and the tasks written off with them.
	forceClosed, writtenOff uint64
}

// NewQueue collectively constructs the queue: every PE must call it with
// identical options. It allocates the symmetric regions and publishes an
// empty-but-valid stealval.
func NewQueue(ctx *shmem.Ctx, opts Options) (*Queue, error) {
	opts.setDefaults()
	format := FormatV1
	if opts.Epochs {
		format = FormatV2
	}
	if opts.Capacity < 2 {
		return nil, fmt.Errorf("core: capacity %d too small", opts.Capacity)
	}
	if opts.Capacity > format.maxTail()+1 {
		return nil, fmt.Errorf("core: capacity %d exceeds stealval tail field of %v (max %d)",
			opts.Capacity, format, format.maxTail()+1)
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
		ctx:       ctx,
		opts:      opts,
		format:    format,
		codec:     codec,
		ring:      rg,
		emptyMode: make([]bool, ctx.NumPEs()),
		popBuf:    wsq.NewPopBuf(codec.PayloadCap()),
	}
	// §4.3: cap the advertised block so thieves' increments cannot
	// overflow asteals into owner fields even if every PE piles on.
	q.maxIT = format.maxITasks() - ctx.NumPEs()
	if q.maxIT < 1 {
		return nil, fmt.Errorf("core: %d PEs leave no itasks range", ctx.NumPEs())
	}
	if q.maxIT > opts.Capacity {
		q.maxIT = opts.Capacity
	}
	if q.stealvalAddr, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	// The word after the stealval is reserved and never read. The sim's
	// event log prints every symmetric address, and TestSimLogGolden pins
	// those logs, so the layout keeps it.
	if _, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	// Completion arrays are indexed by attempt number: wsq.MaxPlanLen
	// slots cover the plan of any block the itasks field can encode.
	if q.completionAddr, err = ctx.Alloc(MaxEpochs * wsq.MaxPlanLen * shmem.WordSize); err != nil {
		return nil, err
	}
	if q.taskAddr, err = ctx.Alloc(opts.Capacity * codec.SlotSize()); err != nil {
		return nil, err
	}
	meta, err := ctx.OwnWords(q.stealvalAddr, 1)
	if err != nil {
		return nil, err
	}
	q.stealval = &meta[0]
	if q.completion, err = ctx.OwnWords(q.completionAddr, MaxEpochs*wsq.MaxPlanLen); err != nil {
		return nil, err
	}
	if q.slots, err = ctx.OwnBytes(q.taskAddr, opts.Capacity*codec.SlotSize()); err != nil {
		return nil, err
	}
	if opts.Fused {
		// The fused handler is a pure function of the fetched stealval
		// and the queue's symmetric geometry; the stealval's own address
		// is the symmetric handler id.
		if err := ctx.RegisterFused(uint64(q.stealvalAddr), q.fusedRanges); err != nil {
			return nil, err
		}
	}
	// Publish an empty, valid block for epoch 0. The plan table never
	// outgrows MaxPlanLen+1 entries.
	q.plan = wsq.Offsets(make([]int, 0, wsq.MaxPlanLen+1), 0)
	if err := q.publish(0, 0); err != nil {
		return nil, err
	}
	q.recs = []epochRec{{start: 0, itasks: 0, parity: 0, claimedBlocks: -1}}
	return q, nil
}

// fusedRanges is the target-side ("NIC") half of a fused steal: map the
// fetched stealval to the claimed block's byte ranges. It runs on the
// transport's delivery goroutine, concurrently with owner operations, so
// it must only read immutable queue state and the word it was handed.
func (q *Queue) fusedRanges(old uint64) ([2]shmem.FusedSpan, int) {
	var out [2]shmem.FusedSpan
	v := q.format.Unpack(old)
	if !v.Valid || int(v.Asteals) >= wsq.PlanLen(v.ITasks) {
		return out, 0
	}
	k := wsq.StealHalf(v.ITasks, int(v.Asteals))
	off := wsq.StealOffset(v.ITasks, int(v.Asteals))
	spans, n, err := q.ring.Spans(uint64(v.Tail)+uint64(off), k)
	if err != nil {
		return out, 0
	}
	slotSize := q.codec.SlotSize()
	for i := 0; i < n; i++ {
		out[i] = shmem.FusedSpan{
			Addr: q.taskAddr + shmem.Addr(spans[i].Start*slotSize),
			N:    spans[i].Count * slotSize,
		}
	}
	return out, n
}

// Format reports the stealval layout in use.
func (q *Queue) Format() Format { return q.format }

// LocalCount returns the number of tasks in the local portion.
func (q *Queue) LocalCount() int { return ring.Distance(q.split, q.head) }

// SharedAvail returns the owner's view of unclaimed shared tasks in the
// current block (an atomic read of its own stealval).
func (q *Queue) SharedAvail() int {
	v := q.format.Unpack(atomic.LoadUint64(q.stealval))
	if !v.Valid {
		return 0
	}
	return v.ITasks - q.plan[q.ownClaims(v)]
}

// ownClaims is clampAttempts for the owner's own current block, read off
// the plan table.
func (q *Queue) ownClaims(v Stealval) int { return min(int(v.Asteals), len(q.plan)-1) }

// clampAttempts bounds the raw asteals counter by the steal plan length.
func (q *Queue) clampAttempts(v Stealval) int {
	n := wsq.PlanLen(v.ITasks)
	if int(v.Asteals) < n {
		return int(v.Asteals)
	}
	return n
}

// free returns the number of unoccupied slots in the ring.
func (q *Queue) free() int { return q.ring.Cap() - ring.Distance(q.rtail, q.head) }

// slot returns the physical slot for a logical position, in the owner's
// own heap. Plain access is safe for positions outside
// every advertised block: thieves read only what a stealval they fetched
// covers, and the stealval's atomic publish/retire and the completion
// words order those reads against the owner's writes.
func (q *Queue) slot(pos uint64) []byte {
	n := q.codec.SlotSize()
	off := q.ring.Slot(pos) * n
	return q.slots[off : off+n : off+n]
}

// Push enqueues a task at the head of the local portion. Purely local: no
// locking, no communication (§3.1 / §4.1: enqueueing is unchanged and
// lightweight). A full ring returns ErrFull.
func (q *Queue) Push(d task.Desc) error {
	if q.free() == 0 {
		if err := q.Progress(); err != nil {
			return err
		}
		if q.free() == 0 {
			return q.errFull()
		}
	}
	if err := q.codec.Encode(q.slot(q.head), d); err != nil {
		return err
	}
	q.head++
	return nil
}

// Pop removes the newest task from the local portion (LIFO, giving the
// depth-first traversal that bounds pool space). The payload is decoded
// into a buffer the queue reuses: it is valid until the next Pop (see
// wsq.Queue).
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

// cur returns the current (last) epoch record.
func (q *Queue) cur() *epochRec { return &q.recs[len(q.recs)-1] }

// publish writes a fresh valid stealval for the current epoch parity.
func (q *Queue) publish(itasks int, stail uint64) error {
	w, err := q.format.Pack(Stealval{
		Valid:  true,
		Epoch:  q.parity(),
		ITasks: itasks,
		Tail:   q.ring.Slot(stail),
	})
	if err != nil {
		return err
	}
	atomic.StoreUint64(q.stealval, w)
	return nil
}

func (q *Queue) parity() int {
	if q.format == FormatV1 {
		return 0
	}
	return q.curEpoch % MaxEpochs
}

// retire disables stealing, harvests the swapped-out stealval into the
// current epoch record, and drops the record immediately if nothing was
// claimed. It returns the number of unclaimed tasks left in the block.
func (q *Queue) retire() (unclaimed int, err error) {
	v := q.format.Unpack(atomic.SwapUint64(q.stealval, q.format.Disabled()))
	rec := q.cur()
	if !v.Valid {
		// Every retire is paired with a startEpoch before control returns
		// to the owner loop, so a disabled stealval here means corruption.
		return 0, fmt.Errorf("core: retire found stealval already disabled")
	}
	if v.ITasks != rec.itasks {
		return 0, fmt.Errorf("core: stealval itasks %d does not match epoch record %d", v.ITasks, rec.itasks)
	}
	rec.claimedBlocks = q.ownClaims(v)
	rec.claimedTasks = q.plan[rec.claimedBlocks]
	unclaimed = rec.itasks - rec.claimedTasks
	// Advance stail past the claimed prefix; the unclaimed remainder is
	// redistributed by the caller (acquire keeps/localizes it; release
	// requires it to be empty).
	q.stail += uint64(rec.claimedTasks)
	if rec.claimedBlocks == 0 {
		// Nothing was ever claimed: no completions to wait for.
		q.recs = q.recs[:len(q.recs)-1]
	}
	return unclaimed, nil
}

// completionSlotAddr returns the heap address of completion slot b for
// parity p (what a thief stores to); completionSlot is the same word in
// the owner's own heap.
func (q *Queue) completionSlotAddr(p, b int) shmem.Addr {
	return q.completionAddr + shmem.Addr((p*wsq.MaxPlanLen+b)*shmem.WordSize)
}

func (q *Queue) completionSlot(p, b int) *uint64 { return &q.completion[p*wsq.MaxPlanLen+b] }

// StealvalAddr exposes the queue's stealval heap address so conformance
// tests can script protocol steps (a manual fetch-add claim) exactly as a
// remote thief would issue them, on any transport.
func (q *Queue) StealvalAddr() shmem.Addr { return q.stealvalAddr }

// CompletionSlotAddr exposes the completion slot address for (epoch,
// attempt), for the same scripted-protocol tests. The slot parity is
// epoch mod MaxEpochs (V1 has a single parity).
func (q *Queue) CompletionSlotAddr(epoch, attempt int) shmem.Addr {
	p := 0
	if q.format != FormatV1 {
		p = epoch % MaxEpochs
	}
	return q.completionSlotAddr(p, attempt)
}

// Progress reclaims space for the longest prefix of completed steals,
// scanning draining epochs oldest-first (§4.2). Purely local: atomic reads
// of the owner's own completion arrays.
func (q *Queue) Progress() error {
	for len(q.recs) > 0 {
		rec := &q.recs[0]
		if !rec.retired() {
			return nil // current block; nothing to drain yet
		}
		for rec.reclaimedBlocks < rec.claimedBlocks {
			b := rec.reclaimedBlocks
			w := atomic.LoadUint64(q.completionSlot(rec.parity, b))
			if w == 0 {
				return nil // oldest outstanding steal still in flight
			}
			want := wsq.StealHalf(rec.itasks, b)
			if int(w) != want {
				return fmt.Errorf("core: completion slot %d of epoch parity %d holds %d, want %d tasks",
					b, rec.parity, w, want)
			}
			q.rtail += uint64(want)
			rec.reclaimedBlocks++
		}
		// Fully drained: zero its completion slots so the parity can be
		// reused, then drop the record.
		for b := 0; b < rec.claimedBlocks; b++ {
			atomic.StoreUint64(q.completionSlot(rec.parity, b), 0)
		}
		q.recs = q.recs[1:]
	}
	return nil
}

// Reset-wait bounds, fixed for every queue.
const (
	// resetPoll is how long a queue reset may poll for a free completion
	// parity before reporting an error (a lost thief).
	resetPoll = 10 * time.Second
	// forceCloseGrace is how long a reset wait tolerates a stalled
	// completion slot after a peer has been declared dead before force
	// closing the epoch: the dead thief's completion store is never coming,
	// so the owner writes the slot off itself (the claimed tasks are
	// accounted as written off, at-least-once).
	forceCloseGrace = 25 * time.Millisecond
)

// parityBusy reports whether a retired record still draining holds parity
// p (for V1, its one parity: any draining record).
func (q *Queue) parityBusy(p int) bool {
	for i := range q.recs {
		rec := &q.recs[i]
		if rec.retired() && (q.format == FormatV1 || rec.parity == p) {
			return true
		}
	}
	return false
}

// waitParityFree polls Progress until parity p is not busy (V1: until every
// draining record is gone — the §4.1 wait-for-all).
//
// If a peer has been declared dead while the wait is stalled, the missing
// completion store may never come: after forceCloseGrace the owner force
// closes the stalled slots itself (see forceCloseStalled) instead of
// wedging the queue forever.
func (q *Queue) waitParityFree(p int) error {
	// The parity is nearly always free already: the deadline is computed
	// only once the wait actually waits.
	var deadline, deadSince time.Time
	for {
		if err := q.Progress(); err != nil {
			return err
		}
		if !q.parityBusy(p) {
			return nil
		}
		q.resetPolls++
		if werr := q.ctx.Err(); werr != nil {
			return werr
		}
		if lv := q.ctx.Liveness(); lv != nil && lv.AnyDead() {
			if deadSince.IsZero() {
				deadSince = time.Now()
			} else if time.Since(deadSince) > forceCloseGrace {
				q.forceCloseStalled()
				continue // re-run Progress over the filled slots
			}
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(resetPoll)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("core: reset stalled %v waiting for completion epoch parity %d (lost thief?)", resetPoll, p)
		}
		// Scheduler-visible yield: a thief's completion store is what ends
		// this wait, and under the sim transport it only lands if the
		// owner hands the lockstep token back.
		q.ctx.Relax()
	}
}

// forceCloseStalled fills every stalled completion slot of every retired
// epoch with its expected count, releasing the space a dead thief claimed
// but never confirmed. The grace period in waitParityFree gives live
// thieves (whose steals complete in a bounded number of round trips) time
// to land their stores first; a slot force-closed under a still-running
// live thief is prevented by that bound, not detected — degraded-mode
// accounting is at-least-once by design.
func (q *Queue) forceCloseStalled() {
	for i := range q.recs {
		rec := &q.recs[i]
		if !rec.retired() {
			continue
		}
		closed := false
		for b := rec.reclaimedBlocks; b < rec.claimedBlocks; b++ {
			slot := q.completionSlot(rec.parity, b)
			if atomic.LoadUint64(slot) != 0 {
				continue
			}
			want := wsq.StealHalf(rec.itasks, b)
			atomic.StoreUint64(slot, uint64(want))
			q.writtenOff += uint64(want)
			closed = true
		}
		if closed {
			q.forceClosed++
		}
	}
}

// startEpoch begins a new completion epoch: waits for its parity's
// completion array to drain, builds the block's plan table, zeroes the
// slots that plan can use, and appends the record. The caller must have
// retired the previous block.
//
// Only the plan's slots are zeroed: Progress already zeroed every slot a
// drained record's claims used, so the rest of the parity is zero (the
// model harness checks this after every owner op), and a slot past the
// plan is one no thief of this block writes and Progress never reads. The
// zeroing that is left covers a straggler whose store landed after a
// force-close wrote its slot off.
func (q *Queue) startEpoch(itasks int) error {
	q.curEpoch++
	p := q.parity()
	if err := q.waitParityFree(p); err != nil {
		return err
	}
	q.plan = wsq.Offsets(q.plan[:0], itasks)
	for b := range len(q.plan) - 1 {
		atomic.StoreUint64(q.completionSlot(p, b), 0)
	}
	q.recs = append(q.recs, epochRec{start: q.stail, itasks: itasks, parity: p, claimedBlocks: -1})
	return q.publish(itasks, q.stail)
}

// ReleaseDue reports whether Release's preconditions hold: two or more
// local tasks and an exhausted shared block.
func (q *Queue) ReleaseDue() bool {
	return q.LocalCount() >= 2 && q.SharedAvail() == 0
}

// Release moves half of the local tasks into a fresh shared block when
// the shared portion is empty (§4.1). Reports the number of tasks
// exposed; 0 means the release did not apply (shared work remains, or
// fewer than 2 local tasks, or — with epochs — both completion arrays are
// still draining, in which case we simply retry later rather than poll).
func (q *Queue) Release() (int, error) {
	if !q.ReleaseDue() {
		return 0, nil
	}
	local := q.LocalCount()
	// Non-blocking variant of startEpoch's parity wait: skip the release if
	// the next epoch's parity is still draining. Work stays local and
	// runnable.
	if err := q.Progress(); err != nil {
		return 0, err
	}
	if q.parityBusy((q.curEpoch + 1) % MaxEpochs) {
		return 0, nil
	}
	unclaimed, err := q.retire()
	if err != nil {
		return 0, err
	}
	if unclaimed != 0 {
		// Claims only grow between ReleaseDue's SharedAvail()==0 and
		// the retire, so leftover unclaimed work is impossible here.
		return 0, fmt.Errorf("core: release found %d unclaimed shared tasks", unclaimed)
	}
	moved := local / 2
	if moved > q.maxIT {
		moved = q.maxIT
	}
	// The new block is the bottom `moved` tasks of the local portion:
	// [split, split+moved). stail has already advanced to split's old
	// claimed boundary; after a clean retire stail == split.
	if q.stail != q.split {
		return 0, fmt.Errorf("core: release with stail %d != split %d", q.stail, q.split)
	}
	q.split += uint64(moved)
	q.releases++
	if err := q.startEpoch(moved); err != nil {
		return 0, err
	}
	return moved, nil
}

// Acquire moves half of the unclaimed shared tasks back into the local
// portion when the local portion is empty (§4.1–4.2). Stealing is
// disabled for the duration of the update; with epochs the owner never
// waits for in-flight claims unless both completion arrays are busy.
func (q *Queue) Acquire() (int, error) {
	if q.LocalCount() != 0 {
		return 0, nil
	}
	unclaimed, err := q.retire()
	if err != nil {
		return 0, err
	}
	if unclaimed == 0 {
		// Nothing to localize; re-open an empty block so thieves see a
		// valid (if empty) queue.
		if err := q.startEpoch(0); err != nil {
			return 0, err
		}
		return 0, nil
	}
	moved := (unclaimed + 1) / 2
	remain := unclaimed - moved
	if remain > q.maxIT {
		// Cannot advertise more than the field allows; localize the rest.
		moved += remain - q.maxIT
		remain = q.maxIT
	}
	// Unclaimed region is [stail, split); keep the bottom `remain` shared
	// and absorb the top `moved` into the local portion.
	if ring.Distance(q.stail, q.split) != unclaimed {
		return 0, fmt.Errorf("core: acquire sees %d unclaimed, geometry says %d",
			unclaimed, ring.Distance(q.stail, q.split))
	}
	q.split -= uint64(moved)
	q.acquires++
	if err := q.startEpoch(remain); err != nil {
		return 0, err
	}
	return moved, nil
}

// Epoch returns the monotonic completion-epoch counter (owner-side read;
// call only from the owning PE's goroutine).
func (q *Queue) Epoch() int { return q.curEpoch }

// OwnerStats reports queue-owner activity for diagnostics.
type OwnerStats struct {
	Releases, Acquires, ResetPolls uint64
	Epochs                         int // draining + current epoch records
	// ForceClosed counts epochs force-closed after a thief died holding an
	// unconfirmed claim; TasksWrittenOff is the tasks those claims covered
	// (lost or executed-but-unconfirmed: at-least-once).
	ForceClosed     uint64
	TasksWrittenOff uint64
}

// Stats returns a snapshot of owner-side activity.
func (q *Queue) Stats() OwnerStats {
	return OwnerStats{
		Releases:        q.releases,
		Acquires:        q.acquires,
		ResetPolls:      q.resetPolls,
		Epochs:          len(q.recs),
		ForceClosed:     q.forceClosed,
		TasksWrittenOff: q.writtenOff,
	}
}
