package wsq

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"sws/internal/ring"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
)

// The buffer's geometry when a queue's options leave it zero: 8192 slots,
// and 24-byte payloads (with the 8-byte header, the paper's 32-byte BPC
// task).
const (
	DefaultCapacity   = 8192
	DefaultPayloadCap = 24
)

// ErrFull is returned (wrapped, with the queue's capacity and owning rank)
// by Push when no slot is free even after the protocol reclaimed completed
// steals. Match with errors.Is: the queue does nothing else about it, and
// the runtime above keeps the task (internal/pool's overflow deque).
var ErrFull = errors.New("wsq: task queue full")

// Slots is the split circular buffer of task slots in the symmetric heap
// that both queues are (§3.1): the slot encoding, the ring geometry, the
// owner's push, pop and positions, and the thief's copy of a claimed block.
// The protocols embed it and differ only in how a thief discovers and
// claims a block, and in how the owner moves Split and learns that a
// claimed block was copied (its Progress advances RTail).
type Slots struct {
	ctx   *shmem.Ctx
	codec task.Codec
	ring  ring.Ring
	addr  shmem.Addr // the slot region, at one offset on every PE
	// own is the slot region in the owner's own heap, as memory. Plain
	// access is safe for positions outside every advertised block: thieves
	// read only what a claim they made covers, and the protocol's claim and
	// completion words order those reads against the owner's writes.
	own []byte
	// progress is the protocol's reclaim, consulted once when a push finds
	// the ring full.
	progress interface{ Progress() error }

	// Owner-side logical positions: RTail <= Split <= head.
	// [RTail, Split)  shared, or claimed and not yet reclaimed;
	// [Split, head)   the local portion.
	// The protocol moves Split (release, acquire) and RTail (Progress).
	head, Split, RTail uint64
	// headSlot is ring.Slot(head), stepped with head by a compare and wrap
	// so that a push or pop divides nothing.
	headSlot int

	popBuf []byte // payload of the last popped task (see Queue.Pop)

	// stealBuf and stealSpans are thief-side staging reused across steals
	// (a Queue handle is driven by one goroutine, so reuse is safe).
	stealBuf   []byte
	stealSpans [2]shmem.Span
	// The attempt in flight (see Attempt): seq numbers the thief's
	// attempts, rec is its journal record in the making.
	seq      uint64
	rec      trace.StealRecord
	answered time.Time
	elapsed  time.Duration
}

// Init sets the buffer's geometry: capacity slots (at least 2) for payloads
// of payloadCap bytes, zero taking the defaults. progress is the embedding
// protocol. Init allocates nothing symmetric; AllocSlots does.
func (s *Slots) Init(ctx *shmem.Ctx, capacity, payloadCap int, progress interface{ Progress() error }) error {
	capacity, payloadCap = cmp.Or(capacity, DefaultCapacity), cmp.Or(payloadCap, DefaultPayloadCap)
	if capacity < 2 {
		return fmt.Errorf("wsq: capacity %d too small", capacity)
	}
	codec, err := task.NewCodec(payloadCap)
	if err != nil {
		return err
	}
	*s = Slots{ctx: ctx, codec: codec, ring: ring.MustNew(capacity), progress: progress,
		popBuf: NewPopBuf(codec.PayloadCap())}
	return nil
}

// AllocSlots allocates the slot region, collectively. Each protocol calls it
// after its own allocations, so the slots come last in the symmetric heap.
func (s *Slots) AllocSlots() error {
	n := s.ring.Cap() * s.codec.SlotSize()
	var err error
	if s.addr, err = s.ctx.Alloc(n); err != nil {
		return err
	}
	s.own, err = s.ctx.OwnBytes(s.addr, n)
	return err
}

// Ring returns the buffer's geometry.
func (s *Slots) Ring() ring.Ring { return s.ring }

// LocalCount returns the number of tasks in the local portion.
func (s *Slots) LocalCount() int { return ring.Distance(s.Split, s.head) }

// free returns the number of unoccupied slots in the ring.
func (s *Slots) free() int { return s.ring.Cap() - ring.Distance(s.RTail, s.head) }

// reclaim runs the protocol's Progress once, for a push that found fewer
// than n free slots, and reports whether n are free now.
func (s *Slots) reclaim(n int) (bool, error) {
	err := s.progress.Progress()
	return err == nil && s.free() >= n, err
}

// slot returns physical slot i in the owner's own heap.
func (s *Slots) slot(i int) []byte {
	n := s.codec.SlotSize()
	return s.own[i*n : (i+1)*n : (i+1)*n]
}

// Push enqueues a task at the head of the local portion. Purely local: no
// locking, no communication (§3.1). A full ring returns ErrFull.
func (s *Slots) Push(d task.Desc) error {
	if s.free() == 0 {
		if ok, err := s.reclaim(1); !ok {
			if err == nil {
				err = fmt.Errorf("%w (capacity %d, rank %d)", ErrFull, s.ring.Cap(), s.ctx.Rank())
			}
			return err
		}
	}
	if err := s.codec.Encode(s.slot(s.headSlot), d); err != nil {
		return err
	}
	s.head++
	if s.headSlot++; s.headSlot == s.ring.Cap() {
		s.headSlot = 0
	}
	return nil
}

// PushSlots lands n encoded tasks at the head of the local portion in one
// copy per contiguous span (see Queue). Like Push it reclaims completed
// steals before it gives up for lack of room.
func (s *Slots) PushSlots(enc []byte, n int) (bool, error) {
	if s.free() < n {
		if ok, err := s.reclaim(n); !ok {
			return false, err
		}
	}
	if err := s.ring.CopyIn(s.own, s.codec.SlotSize(), s.head, enc, n); err != nil {
		return false, err
	}
	s.head += uint64(n)
	s.headSlot = s.ring.Slot(s.head)
	return true, nil
}

// Pop removes the newest task from the local portion (LIFO, giving the
// depth-first traversal that bounds pool space). The payload is decoded
// into a buffer the queue reuses: it is valid until the next Pop (see
// Queue).
func (s *Slots) Pop() (task.Desc, bool, error) {
	if s.head == s.Split {
		return task.Desc{}, false, nil
	}
	i := s.headSlot
	if i == 0 {
		i = s.ring.Cap()
	}
	i--
	d, err := s.codec.DecodeTo(s.slot(i), s.popBuf)
	if err != nil {
		return task.Desc{}, false, err
	}
	s.head--
	s.headSlot = i
	return d, true, nil
}

// Attempt is one steal attempt on victim by steal, the protocol's half (its
// ops through sc carry the attempt's span; it calls Claimed on the claim's
// answer), journaled once: it reads the clock at the start, on the claim's
// answer and at the end, and writes one trace.Steal record on the thief's
// ring. The span ID is (rank+1)<<48 | sequence: the thief is in the high
// bits, IDs never collide across ranks, and zero stays untagged traffic's.
func (s *Slots) Attempt(victim int, steal func(int, shmem.SpanCtx) ([]task.Desc, Outcome, error)) ([]task.Desc, Outcome, error) {
	if victim == s.ctx.Rank() || victim < 0 || victim >= s.ctx.NumPEs() {
		return nil, Empty, fmt.Errorf("wsq: PE %d cannot steal from PE %d of [0, %d)", s.ctx.Rank(), victim, s.ctx.NumPEs())
	}
	s.seq++
	span := uint64(s.ctx.Rank()+1)<<48 | s.seq&(1<<48-1)
	s.rec = trace.StealRecord{Victim: victim, ClaimOp: -1, CopyOp: -1}
	start := s.ctx.Now()
	tasks, out, err := steal(victim, s.ctx.WithSpan(span))
	end, r := s.ctx.Now(), &s.rec
	if r.ClaimOp < 0 {
		s.answered = end
	}
	s.elapsed = end.Sub(start)
	r.Claim, r.Rest, r.Outcome = s.answered.Sub(start), end.Sub(s.answered), int64(len(tasks))
	if err != nil {
		r.Outcome = -2
	} else if out == Disabled {
		r.Outcome = -1
	}
	a, b := r.Pack()
	s.ctx.FlightRecordAt(end, trace.Steal, a, b, span)
	return tasks, out, err
}

// Claimed reads the clock on the claim's answer, which op brought.
func (s *Slots) Claimed(op shmem.Op) { s.rec.ClaimOp, s.answered = int(op), s.ctx.Now() }

// StealElapsed is how long the last steal attempt took, on Ctx.Now.
func (s *Slots) StealElapsed() time.Duration { return s.elapsed }

// BlockSpans maps the k slots from logical position start on to at most two
// byte ranges of the slot region. Wrapping is computed locally: queues are
// symmetric, so it costs no communication (§4, example point 1). It reads
// only immutable geometry, so a transport's fused handler may call it
// concurrently with the owner.
func (s *Slots) BlockSpans(start uint64, k int) ([2]shmem.Span, int, error) {
	var out [2]shmem.Span
	spans, n, err := s.ring.Spans(start, k)
	size := s.codec.SlotSize()
	for i := range n {
		out[i] = shmem.Span{Addr: s.addr + shmem.Addr(spans[i].Start*size), N: spans[i].Count * size}
	}
	return out, n, err
}

// CopyBlock copies the k slots a thief claimed, from logical position start
// on, out of victim's buffer: one blocking Get, or one GetV when the block
// wraps the ring, so wrapping costs no extra round trip. It lands them in
// staging reused across steals and decodes them.
func (s *Slots) CopyBlock(sc shmem.SpanCtx, victim int, start uint64, k int) ([]task.Desc, error) {
	var n int
	var err error
	if s.stealSpans, n, err = s.BlockSpans(start, k); err != nil {
		return nil, err
	}
	buf := s.Staging(k * s.codec.SlotSize())
	if n == 1 {
		s.rec.CopyOp, err = int(shmem.OpGet), sc.Get(victim, s.stealSpans[0].Addr, buf)
	} else {
		s.rec.CopyOp, err = int(shmem.OpGetV), sc.GetV(victim, s.stealSpans[:n], buf)
	}
	if err != nil {
		return nil, err
	}
	return s.DecodeBlock(victim, buf, k)
}

// Staging returns n bytes of the thief's staging, reused across steals.
func (s *Slots) Staging(n int) []byte {
	if cap(s.stealBuf) < n {
		s.stealBuf = make([]byte, n)
	}
	return s.stealBuf[:n]
}

// DecodeBlock parses the k task slots a steal from victim brought back into
// the staging (or into a larger buffer, which becomes the staging).
func (s *Slots) DecodeBlock(victim int, data []byte, k int) ([]task.Desc, error) {
	size := s.codec.SlotSize()
	if len(data) != k*size {
		return nil, fmt.Errorf("wsq: steal from PE %d returned %d bytes, want %d (k=%d)", victim, len(data), k*size, k)
	}
	s.stealBuf = data[:0]
	tasks := make([]task.Desc, k)
	for i := range tasks {
		d, err := s.codec.Decode(data[i*size:])
		if err != nil {
			return nil, fmt.Errorf("wsq: stolen slot %d from PE %d: %w", i, victim, err)
		}
		tasks[i] = d
	}
	return tasks, nil
}
