package shmem

import (
	"fmt"
	"time"

	"sws/internal/obs"
	"sws/internal/trace"
)

// Ctx is a PE's handle to the world: its identity, its symmetric heap, and
// the one-sided operations it may perform on any PE's heap. By default a
// Ctx is bound to the goroutine running its PE's body and is not safe for
// concurrent use by multiple goroutines; a multi-worker runtime may opt
// into shared use with EnableMultiWorker, after which data-path operations
// (puts, gets, atomics, Wait, Quiet, WaitUntil64) may be issued from any
// of the PE's worker goroutines. Setup operations (Alloc, AttachTrace)
// and Barrier remain owner-goroutine-only even then.
type Ctx struct {
	w        *World
	rank     int
	self     *peState
	counters Counters

	// rec enables per-op latency histograms (see latStart): off under the
	// sim, where a wall-clock op latency means nothing.
	rec bool
	// ring is this PE's event ring, picked once: the world's flight ring,
	// or the trace ring AttachTrace put in its place. traced says which:
	// a trace ring also takes the events of operations outside any steal
	// span and of injections.
	ring   *trace.Flight
	traced bool

	// allocCursor is this PE's symmetric-allocation bump pointer. All PEs
	// must perform the same sequence of Alloc calls (SPMD style), which
	// makes the returned offsets symmetric, as with shmem_malloc.
	allocCursor Addr
}

func (w *World) newCtx(rank int) *Ctx {
	// User allocations start past the reserved words (see the table beside
	// reservedHeapBytes).
	w.attaches.Add(1)
	return &Ctx{w: w, rank: rank, self: w.pes[rank], rec: w.cfg.Transport != TransportSim, ring: w.Ring(rank), allocCursor: reservedHeapBytes}
}

// Attaches counts PE attachments to this world's transport — one per Ctx
// ever created. A warm fleet serving many jobs holds it at NumPEs; any
// growth past that proves a transport re-attach happened between jobs.
func (w *World) Attaches() uint64 { return w.attaches.Load() }

// Distributed reports whether this World hosts a single PE of a larger
// multi-process world (built by Join) rather than all PEs in-process.
func (w *World) Distributed() bool { return w.localRank >= 0 }

// AttachTrace makes f this PE's event ring for the rest of the world's
// life, in place of the world's own flight ring: everything the PE and
// its peers journal about it — and a failure dump — goes to f, and every
// blocking remote operation records a trace.CommOp event (A = op code,
// B = duration ns), not only those inside a steal span. A nil f keeps the
// ring in use.
func (c *Ctx) AttachTrace(f *trace.Flight) {
	if f != nil {
		c.ring, c.traced = f, true
		c.w.rings[c.rank].Store(f)
	}
}

// MultiWorkerCapable reports whether this world's transport supports a PE
// issuing operations from multiple goroutines. The deterministic
// simulation transport does not: it runs PEs in lockstep, one scheduled
// goroutine per PE, and a second goroutine entering the scheduler would
// deadlock the virtual clock.
func (c *Ctx) MultiWorkerCapable() bool { return c.w.cfg.Transport != TransportSim }

// EnableMultiWorker declares that multiple goroutines of this PE will
// issue data-path operations on this Ctx (a multi-worker pool: one owner
// plus executor workers). It must be called from the owner goroutine
// before any worker goroutine starts. Heap words and communication
// counters are atomics, so concurrent data-path operations are safe on
// the local and tcp transports, and so is the event ring. Returns an
// error under the simulation transport — see MultiWorkerCapable.
func (c *Ctx) EnableMultiWorker() error {
	if !c.MultiWorkerCapable() {
		return fmt.Errorf("shmem: transport runs PEs in single-goroutine lockstep; multi-worker PEs need the local or tcp transport")
	}
	return nil
}

// latStart begins timing the n-th blocking remote op of its kind (zero time:
// not timed). Nothing is timed under the sim; a span-tagged or traced op
// always is, as its event carries the duration; any other op one in
// obs.SampleEvery of its kind, since two clock reads cost more than a shm
// atomic.
func (c *Ctx) latStart(n, span uint64) time.Time {
	if !c.rec || (span == 0 && !c.traced && (n-1)%obs.SampleEvery != 0) {
		return time.Time{}
	}
	return time.Now()
}

// latEnd records a timed op's latency sample and, for a span-tagged op (so
// a steal's initiator side survives to a post-mortem dump) or any op on a
// trace ring, its event. An op with an event reads the full clock once, for
// sample and timestamp; one without pays only time.Since's monotonic read.
func (c *Ctx) latEnd(op Op, t0 time.Time, span uint64) {
	if span == 0 && !c.traced {
		if !t0.IsZero() {
			c.counters.recordLat(op, time.Since(t0))
		}
		return
	}
	var d time.Duration
	var end time.Time
	if c.rec {
		end = time.Now()
		d = end.Sub(t0)
		c.counters.recordLat(op, d)
	}
	if span != 0 || c.rec {
		c.ring.RecordTime(end, trace.CommOp, int64(op), int64(d), span)
	}
}

// RecordSpanEvent records a span lifecycle event (start/end) into this
// PE's ring. The steal implementation calls it around each attempt.
func (c *Ctx) RecordSpanEvent(k trace.Kind, a, b int64, span uint64) {
	c.ring.Record(k, a, b, span)
}

// FlightRecord records a non-span diagnostic event (queue depth, epoch
// flip, membership transitions) into this PE's ring.
func (c *Ctx) FlightRecord(k trace.Kind, a, b int64) { c.ring.Record(k, a, b, 0) }

// FlightDump dumps every ring this process records into to the world's
// configured flight directory, tagged with reason. It is a no-op when no
// directory is configured; the first dump wins and later calls return
// nil (one failure produces one journal set, not one per observer).
func (c *Ctx) FlightDump(reason string) error { return c.w.DumpFlight(reason) }

// SpanCtx is a view of a Ctx whose remote operations carry a causal span
// ID: the transports deliver the span to the target so both sides of a
// steal record the same span into their flight journals. The zero-span
// view behaves exactly like the plain Ctx. SpanCtx is a value — creating
// one allocates nothing.
type SpanCtx struct {
	c    *Ctx
	span uint64
}

// WithSpan returns a view whose operations are tagged with span.
func (c *Ctx) WithSpan(span uint64) SpanCtx { return SpanCtx{c: c, span: span} }

// Load64 is Ctx.Load64 carrying the view's span.
func (s SpanCtx) Load64(pe int, addr Addr) (uint64, error) {
	v, _, err := s.c.do(&opReq{op: OpLoad, to: pe, addr: addr, span: s.span})
	return v, err
}

// FetchAdd64 is Ctx.FetchAdd64 carrying the view's span.
func (s SpanCtx) FetchAdd64(pe int, addr Addr, delta uint64) (uint64, error) {
	v, _, err := s.c.do(&opReq{op: OpFetchAdd, to: pe, addr: addr, v1: delta, span: s.span})
	return v, err
}

// Get is Ctx.Get carrying the view's span.
func (s SpanCtx) Get(pe int, addr Addr, dst []byte) error {
	_, _, err := s.c.do(&opReq{op: OpGet, to: pe, addr: addr, buf: dst, span: s.span})
	return err
}

// GetV is Ctx.GetV carrying the view's span.
func (s SpanCtx) GetV(pe int, spans []Span, dst []byte) error {
	_, _, err := s.c.do(&opReq{op: OpGetV, to: pe, spans: spans, buf: dst, span: s.span})
	return err
}

// Store64NBI is Ctx.Store64NBI carrying the view's span.
func (s SpanCtx) Store64NBI(pe int, addr Addr, val uint64) error {
	_, _, err := s.c.do(&opReq{op: OpStoreNBI, to: pe, addr: addr, v1: val, span: s.span})
	return err
}

// FetchAddGet is Ctx.FetchAddGet carrying the view's span.
func (s SpanCtx) FetchAddGet(pe int, addr Addr, delta uint64, id uint64) (uint64, []byte, error) {
	return s.c.do(&opReq{op: OpFetchAddGet, to: pe, addr: addr, v1: delta, id: id, span: s.span})
}

// Rank returns this PE's rank in [0, NumPEs).
func (c *Ctx) Rank() int { return c.rank }

// NumPEs returns the number of PEs in the world.
func (c *Ctx) NumPEs() int { return c.w.cfg.NumPEs }

// Counters returns this PE's communication counters.
func (c *Ctx) Counters() *Counters { return &c.counters }

// Err reports the world's fatal error, if any: another PE's body failed
// or the transport died. Long-running loops should poll it so one PE's
// failure unwinds the whole world instead of leaving peers spinning. A
// crash-injected PE sees an error wrapping ErrPEKilled so its own loops
// unwind promptly (without failing the world — see World.Run).
func (c *Ctx) Err() error { return c.w.errFor(c.rank) }

// errFor is Ctx.Err for rank, for the wait primitives that poll it on a
// PE's behalf.
func (w *World) errFor(rank int) error {
	if err := w.live.selfCheck(rank); err != nil {
		return err
	}
	if !w.failed.Load() {
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	return fmt.Errorf("shmem: world failed")
}

// Now is this PE's one clock, for poll deadlines and every timed interval:
// its virtual clock under TransportSim, so no poll count or time column
// depends on the host's speed, and the monotonic wall clock elsewhere.
func (c *Ctx) Now() time.Time {
	if c.w.sim != nil {
		return c.w.sim.clock(c.rank)
	}
	return time.Now()
}

// Liveness returns the world's membership view (failure detector).
func (c *Ctx) Liveness() *Liveness { return c.w.live }

// selfCheck fails operations issued by a crash-injected PE. The fast path
// is a single atomic load that stays zero until the first failure event.
func (lv *Liveness) selfCheck(rank int) error {
	if lv.events.Load() == 0 {
		return nil
	}
	if lv.killed[rank].Load() {
		return fmt.Errorf("shmem: PE %d: %w", rank, ErrPEKilled)
	}
	return nil
}

// peerCheck gates a remote operation against the liveness view: a killed
// initiator unwinds with ErrPEKilled, and a target that is gone fails the
// op (targetGone). Inert (one atomic load) until the first failure event.
func (c *Ctx) peerCheck(op Op, pe int) error {
	lv := c.w.live
	if lv.events.Load() == 0 {
		return nil
	}
	if lv.killed[c.rank].Load() {
		return opError(op, c.rank, pe, ErrPEKilled)
	}
	return lv.targetGone(op, c.rank, pe)
}

// targetGone fails an operation whose target can no longer complete the
// round trip: ErrPeerDead once it is declared dead, a fast ErrOpTimeout
// while it is crash-injected but not yet declared. An out-of-range target
// passes; the range error surfaces where the op is applied.
func (lv *Liveness) targetGone(op Op, from, to int) error {
	if to < 0 || to >= len(lv.states) {
		return nil
	}
	if !lv.Alive(to) {
		return opError(op, from, to, ErrPeerDead)
	}
	if lv.killed[to].Load() {
		return opError(op, from, to, ErrOpTimeout)
	}
	return nil
}

// Alloc reserves n bytes of symmetric heap and returns the offset. Every
// allocation owns whole cache lines (starts on one, is rounded up to
// LineSize). Alloc must be called collectively: every PE must perform the
// same sequence of Alloc calls so the offsets coincide (verified cheaply at
// the next Barrier when the world is local).
func (c *Ctx) Alloc(n int) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("shmem: negative allocation %d", n)
	}
	size := Addr((n + LineSize - 1) &^ (LineSize - 1))
	if uint64(c.allocCursor)+uint64(size) > uint64(len(c.self.bytes)) {
		return 0, fmt.Errorf("shmem: symmetric heap exhausted: want %d bytes at %#x, heap is %d bytes",
			n, uint64(c.allocCursor), len(c.self.bytes))
	}
	addr := c.allocCursor
	c.allocCursor += size
	return addr, nil
}

// MustAlloc is Alloc that treats exhaustion as fatal, for setup code.
func (c *Ctx) MustAlloc(n int) Addr {
	a, err := c.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// OwnWords returns the n words at addr of this PE's OWN heap as ordinary
// memory (as under OpenSHMEM), bounds-checked here once: an owner-side
// fast path holds the window and uses sync/atomic on its words directly —
// no descriptor, no counter, no clock. Peers reach the same words through
// one-sided ops, so a word a peer may touch concurrently needs atomics.
func (c *Ctx) OwnWords(addr Addr, n int) ([]uint64, error) {
	if addr%WordSize != 0 {
		return nil, fmt.Errorf("shmem: unaligned own-heap window at %#x", uint64(addr))
	}
	if err := c.self.checkRange(addr, n*WordSize); err != nil {
		return nil, err
	}
	return c.self.words[addr/WordSize:][:n:n], nil
}

// OwnBytes is OwnWords for a byte range: plain access is safe only where
// the protocol orders it against peers' transfers (a queue slot outside
// any advertised block, an inbox slot handed over by its signal word).
func (c *Ctx) OwnBytes(addr Addr, n int) ([]byte, error) {
	if err := c.self.checkRange(addr, n); err != nil {
		return nil, err
	}
	return c.self.bytes[addr:][:n:n], nil
}

// Barrier synchronizes all PEs. It also completes this PE's outstanding
// non-blocking operations first (OpenSHMEM's barrier_all implies quiet).
func (c *Ctx) Barrier() error {
	if err := c.w.live.selfCheck(c.rank); err != nil {
		return err
	}
	if err := c.Quiet(); err != nil {
		return err
	}
	return c.w.transport.barrier(c.rank)
}

// Quiet blocks until all non-blocking operations issued by this PE have
// been applied at their targets.
func (c *Ctx) Quiet() error { return c.w.transport.quiet(c.rank) }

// Yield is the scheduling point of a PE that just made progress (ran a
// task), called once per task. Under TransportSim every call hands the
// lockstep token back, as Wait.Poll does, so the sim's schedule has one per
// task. On a wall clock the PE cedes the processor only when due — the
// caller's cadence — because runtime.Gosched takes the Go scheduler's
// process-wide lock, which busy PEs yielding per sub-microsecond task
// contend on at the task rate. It never sleeps.
func (c *Ctx) Yield(due bool) {
	if c.w.sim != nil {
		c.w.sim.yield(c.rank, 0)
		return
	}
	if due {
		c.self.yields.Add(1)
		yield()
	}
}

// Wait is the one rule for a poll loop's empty iteration: make one per
// wait, as a local of the polling goroutine (in a shared struct every Reset
// moves a line others read), Poll once per empty iteration and Reset after
// progress. Under TransportSim every Poll hands the lockstep token on. On
// a wall clock the first waitYoung polls in a row only yield — most waits
// are brief, and a sleeper can take a millisecond to wake on a loaded host
// — and each later one is a back-off step, every 64th step of the PE a 1 µs
// sleep so an oversubscribed host makes progress.
type Wait struct {
	c        *Ctx
	timeout  time.Duration
	deadline time.Time
	polls    int
}

// waitYoung is how many polls in a row a Wait only yields for, and how
// often on a wall clock it reads the clock for its deadline.
const waitYoung = 64

// NewWait starts a wait that expires timeout (on Ctx.Now) after its first
// Poll; a timeout <= 0 never expires.
func (c *Ctx) NewWait(timeout time.Duration) Wait { return Wait{c: c, timeout: timeout} }

// Poll is one empty iteration. It reports whether the deadline has passed
// — tested once in waitYoung polls, on every poll under the sim — and then
// returns at once, without yielding.
func (w *Wait) Poll() (expired bool) {
	c := w.c
	if w.timeout > 0 && (c.w.sim != nil || w.polls%waitYoung == 0) {
		now := c.Now()
		if w.deadline.IsZero() {
			w.deadline = now.Add(w.timeout)
		} else if now.After(w.deadline) {
			return true
		}
	}
	switch w.polls++; {
	case c.w.sim != nil || w.polls <= waitYoung:
		c.Yield(true)
	case c.self.pauses.Add(1)%64 == 0:
		time.Sleep(time.Microsecond)
	default:
		yield()
	}
	return false
}

// Reset ends the wait after progress: the next Poll starts a young one.
func (w *Wait) Reset() { w.polls, w.deadline = 0, time.Time{} }

// Pauses counts this PE's Wait back-off steps, every 64th of which slept.
func (c *Ctx) Pauses() uint64 { return c.self.pauses.Load() }

// Yields counts the times Yield (on a wall-clock transport) and Compute
// ceded the processor.
func (c *Ctx) Yields() uint64 { return c.self.yields.Load() }

// Compute simulates d of task computation: under TransportSim a virtual
// charge (the PE parks until its clock is d later), else a spin at
// computeQuantum's cadence.
func (c *Ctx) Compute(d time.Duration) {
	if c.w.sim != nil && d > 0 {
		c.w.sim.yield(c.rank, d)
	} else if _, n := spin(d, computeQuantum()); n > 0 {
		c.self.yields.Add(n)
	}
}

// --- One-sided operations ---------------------------------------------------

// do is the one front-end of every one-sided operation: the liveness
// gate, the communication counters, the latency sample and span-tagged
// journal entry, and the self-target short-circuit (a PE's operations on
// its own heap are plain memory operations: they never reach the
// transport and are counted but not timed). r.from is filled in here. The descriptor comes in by
// pointer (to the wrapper's stack temporary, which does not escape) and
// is copied exactly once, where it crosses the transport interface.
func (c *Ctx) do(r *opReq) (uint64, []byte, error) {
	r.from = c.rank
	if r.to == c.rank {
		val, data, err := c.w.apply(c.self, r, nil)
		if err != nil {
			return 0, nil, err
		}
		c.counters.countLocal()
		return val, data, nil
	}
	if err := c.peerCheck(r.op, r.to); err != nil {
		return 0, nil, err
	}
	n := c.counters.countRemote(r.op, len(r.buf))
	if !r.op.Blocking() {
		err := c.w.transport.nbi(*r)
		if c.traced && r.span != 0 {
			// Non-blocking injection: no latency to attribute. A trace ring
			// shows the ack was issued (duration 0 = injected); the flight
			// ring deliberately does not — the issue is implied by the
			// span-end outcome, and the diagnostic that matters for weak
			// ordering is the victim-side apply, which land records.
			// Skipping it keeps the always-on steal path at two clock reads
			// (span start and end).
			c.ring.Record(trace.CommOp, int64(r.op), 0, r.span)
		}
		return 0, nil, err
	}
	t0 := c.latStart(n, r.span)
	val, data, err := c.w.transport.blocking(*r)
	c.latEnd(r.op, t0, r.span)
	if r.op == OpFetchAddGet && err == nil {
		c.counters.bytesGot.Add(uint64(len(data)))
	}
	return val, data, err
}

// Put copies src into PE pe's heap at addr and blocks until complete.
func (c *Ctx) Put(pe int, addr Addr, src []byte) error {
	_, _, err := c.do(&opReq{op: OpPut, to: pe, addr: addr, buf: src})
	return err
}

// PutSignal copies src into PE pe's heap at addr and then release-stores
// sig to the word at sigAddr there, as one blocking operation (OpenSHMEM
// 1.5's shmem_put_signal): a reader on pe that acquires the signal word
// sees the whole payload, with no second communication to say so. Both
// addresses are validated before either is written. Unlike a plain put it
// is never redelivered or retried once it may have reached the target —
// the signal hands the bytes on, and a second copy could land on their
// next occupant — so a lost one fails with a typed error instead.
func (c *Ctx) PutSignal(pe int, addr Addr, src []byte, sigAddr Addr, sig uint64) error {
	_, _, err := c.do(&opReq{op: OpPutSignal, to: pe, addr: addr, buf: src, v1: sig, v2: uint64(sigAddr)})
	return err
}

// Get copies len(dst) bytes from PE pe's heap at addr into dst.
func (c *Ctx) Get(pe int, addr Addr, dst []byte) error { return c.WithSpan(0).Get(pe, addr, dst) }

// GetV gathers the given spans of PE pe's heap into dst, in order, in ONE
// blocking round trip (a vectored get). len(dst) must equal the spans'
// total length. A circular-buffer block that wraps the physical end of
// the buffer is the motivating case: two spans, still one communication,
// preserving the protocols' comms-per-steal bounds unconditionally.
func (c *Ctx) GetV(pe int, spans []Span, dst []byte) error {
	return c.WithSpan(0).GetV(pe, spans, dst)
}

// FetchAdd64 atomically adds delta to the word at addr on PE pe and
// returns the previous value.
func (c *Ctx) FetchAdd64(pe int, addr Addr, delta uint64) (uint64, error) {
	return c.WithSpan(0).FetchAdd64(pe, addr, delta)
}

// Swap64 atomically replaces the word at addr on PE pe with val and
// returns the previous value.
func (c *Ctx) Swap64(pe int, addr Addr, val uint64) (uint64, error) {
	v, _, err := c.do(&opReq{op: OpSwap, to: pe, addr: addr, v1: val})
	return v, err
}

// CompareSwap64 atomically replaces the word at addr on PE pe with new if
// it equals old, returning the previous value (OpenSHMEM fetching CAS).
func (c *Ctx) CompareSwap64(pe int, addr Addr, old, new uint64) (uint64, error) {
	v, _, err := c.do(&opReq{op: OpCompareSwap, to: pe, addr: addr, v1: old, v2: new})
	return v, err
}

// Load64 atomically fetches the word at addr on PE pe.
func (c *Ctx) Load64(pe int, addr Addr) (uint64, error) { return c.WithSpan(0).Load64(pe, addr) }

// Store64 atomically stores val to the word at addr on PE pe and blocks
// until the store is visible at the target.
func (c *Ctx) Store64(pe int, addr Addr, val uint64) error {
	_, _, err := c.do(&opReq{op: OpStore, to: pe, addr: addr, v1: val})
	return err
}

// Store64NBI injects an atomic store and returns immediately. Completion
// is observed via Quiet (or Barrier). Self-targeted stores apply
// immediately.
func (c *Ctx) Store64NBI(pe int, addr Addr, val uint64) error {
	return c.WithSpan(0).Store64NBI(pe, addr, val)
}

// Add64NBI injects a non-fetching atomic add and returns immediately.
func (c *Ctx) Add64NBI(pe int, addr Addr, delta uint64) error {
	_, _, err := c.do(&opReq{op: OpAddNBI, to: pe, addr: addr, v1: delta})
	return err
}

// PutNBI injects a bulk put and returns immediately.
func (c *Ctx) PutNBI(pe int, addr Addr, src []byte) error {
	_, _, err := c.do(&opReq{op: OpPutNBI, to: pe, addr: addr, buf: src})
	return err
}

// --- Point-to-point synchronization ----------------------------------------

// Cmp is a comparison operator for WaitUntil64 (OpenSHMEM's shmem_wait_until).
type Cmp int

const (
	CmpEQ Cmp = iota
	CmpNE
	CmpGT
	CmpGE
	CmpLT
	CmpLE
)

func (c Cmp) String() string {
	switch c {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	default:
		return fmt.Sprintf("Cmp(%d)", int(c))
	}
}

func (c Cmp) eval(a, b uint64) (bool, error) {
	switch c {
	case CmpEQ:
		return a == b, nil
	case CmpNE:
		return a != b, nil
	case CmpGT:
		return a > b, nil
	case CmpGE:
		return a >= b, nil
	case CmpLT:
		return a < b, nil
	case CmpLE:
		return a <= b, nil
	default:
		return false, fmt.Errorf("shmem: unknown comparison %d", int(c))
	}
}

// WaitUntil64 blocks until the word at addr in THIS PE's heap satisfies
// `value cmp operand` — OpenSHMEM's point-to-point synchronization: a peer
// flips the word with a one-sided store and this PE observes it without
// any message exchange. It returns the satisfying value, or an error if
// the world fails or the timeout (0 = none) expires.
func (c *Ctx) WaitUntil64(addr Addr, cmp Cmp, operand uint64, timeout time.Duration) (uint64, error) {
	if _, err := c.self.checkWord(addr); err != nil {
		return 0, err
	}
	if _, err := cmp.eval(0, operand); err != nil {
		return 0, err // unknown comparison, before any waiting
	}
	return c.w.transport.waitWord(waitReq{rank: c.rank, on: c.rank, addr: addr, cmp: cmp, operand: operand, timeout: timeout})
}
