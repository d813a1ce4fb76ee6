package shmem

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements TransportSim: a deterministic simulation transport
// in the FoundationDB tradition. A single scheduler goroutine owns a
// virtual clock and runs the world in lockstep — at most one PE goroutine
// executes at any moment; every other PE is parked inside a transport
// operation, a barrier, a WaitUntil64, or a Relax yield point. Every
// latency, delivery time, and schedule decision is drawn from one PRNG
// seeded by SimOptions.Seed, so an entire multi-PE pool run — steals,
// epoch flips, termination waves — replays bit-identically from the seed.
//
// PE code running under the sim must block only through shmem primitives
// (blocking ops, Quiet, Barrier, WaitUntil64, or Ctx.Relax in poll loops):
// a raw spin on local memory is invisible to the scheduler and holds the
// lockstep token forever. The runtime packages (core, pool, term) satisfy
// this by routing their poll loops through Ctx.Relax.

// SimOptions configures the deterministic simulation transport
// (TransportSim). The zero value gets usable defaults.
type SimOptions struct {
	// Seed drives every random decision of the simulation: operation
	// latencies, yield jitter, schedule choices in chaos mode, and the
	// fault stream (when the injector is seeded from the same value).
	// Seed 0 is a fixed seed, not a time-derived one.
	Seed int64
	// MaxVirtualTime aborts the run (world failure with a scheduler state
	// dump) when the virtual clock exceeds it — the livelock detector.
	// Default 5s of virtual time.
	MaxVirtualTime time.Duration
	// MaxSteps aborts the run after this many scheduler decisions,
	// bounding real time even when virtual time advances slowly.
	// Default 4,000,000.
	MaxSteps uint64
	// Chaos randomizes the schedule choice among near-simultaneous
	// candidates instead of always picking the earliest, exploring more
	// interleavings per seed.
	Chaos bool
	// Choices, when non-empty, forces the first len(Choices) schedule
	// decisions: decision i picks candidate Choices[i] mod the number of
	// eligible candidates. After the prefix is consumed the scheduler
	// falls back to its normal (or chaos) policy. This is the bounded
	// systematic mode: enumerating short prefixes enumerates the protocol
	// interleavings around a point of interest.
	Choices []byte
	// Log, if non-nil, receives the deterministic event log: one line per
	// scheduler action (grants, op applications, NBI deliveries, barrier
	// releases). Byte-identical across runs with identical inputs.
	Log io.Writer
	// Kill schedules crash injections: each entry kills one PE at a
	// virtual time. The victim's pending and future operations fail with
	// ErrPEKilled; peers' operations against it fail fast; after
	// Config.DeadAfter of virtual time the detector declares it dead,
	// unwinding barriers and waits with ErrPeerDead. An empty schedule
	// adds no events and draws no randomness, so fault-free runs stay
	// byte-identical.
	Kill []SimKill
	// Churn schedules voluntary membership transitions at virtual times:
	// each entry begins a drain (Join=false, against a member rank) or a
	// join (Join=true, against a rank parked via SetInitialMembers or an
	// earlier drain). The affected PE completes the transition from its
	// own scheduler loop, so the whole sequence is deterministic and
	// replays byte-identically from the seed. An empty schedule adds no
	// events and draws no randomness.
	Churn []SimChurn
}

// SimKill is one scheduled crash injection for the simulation transport.
type SimKill struct {
	Rank int
	At   time.Duration // virtual time of the crash
}

// SimChurn is one scheduled membership transition for the simulation
// transport: a drain of a member rank, or a join of a parked one.
type SimChurn struct {
	Rank int
	At   time.Duration // virtual time of the Begin* transition
	Join bool          // true: BeginJoin; false: BeginDrain
}

// Virtual costs, fixed for every sim world: each remote operation and NBI
// delivery draws its latency from [simMinLatency, simMaxLatency], and a
// Relax hop or NBI injection costs simYieldCost (a Relax hop up to twice
// that), keeping the clock advancing through poll loops.
const (
	simMinLatency = 2 * time.Microsecond
	simMaxLatency = 8 * time.Microsecond
	simYieldCost  = time.Microsecond
)

func (o *SimOptions) setDefaults() {
	if o.MaxVirtualTime == 0 {
		o.MaxVirtualTime = 5 * time.Second
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 4_000_000
	}
}

// Scheduler request kinds.
const (
	simReqStart = iota // PE goroutine handshake before running its body
	simReqOp           // blocking one-sided operation
	simReqNBI          // non-blocking injection (fire and forget)
	simReqQuiet
	simReqWait // WaitUntil64 on local memory
	simReqRelax
	simReqBarrier
	simReqDone // PE body finished (handshake, so logs drain before close)
)

type simReq struct {
	kind int
	rank int
	op   opReq   // simReqOp, simReqNBI
	wait waitReq // simReqWait
}

type simReply struct {
	val  uint64
	data []byte
	err  error
}

// Per-PE scheduler states.
const (
	simPERunning     = iota
	simPEBlockedOp   // parked in a blocking op / start / relax / barrier wake
	simPEBlockedCond // parked in quiet or wait-until
	simPEBarrier     // arrived at the barrier, waiting for the others
	simPEDone
)

var simStateNames = [...]string{"running", "blocked-op", "blocked-cond", "barrier", "done"}

type simPE struct {
	state    int
	req      simReq
	readyAt  uint64 // virtual wake time for simPEBlockedOp
	deadline uint64 // virtual timeout for simReqWait (0 = none)
	failErr  error  // fault verdict for the parked blocking op
	vclock   uint64 // PE-local virtual clock
	pending  int    // NBI deliveries in flight from this PE
}

// Scheduler event kinds (simEvent.kind).
const (
	simEvNBI   = iota // an NBI delivery landing at its target
	simEvKill         // a scheduled crash injection fires
	simEvDead         // the failure detector declares a killed PE dead
	simEvChurn        // a scheduled membership transition begins
)

type simEvent struct {
	at   uint64
	seq  uint64
	kind int
	// op is the NBI delivery; kill, dead and churn events use only its
	// target rank (and v1 != 0 for a join).
	op         opReq
	drop       bool
	pendingDec bool
}

type simEventHeap []simEvent

func (h simEventHeap) Len() int { return len(h) }
func (h simEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h simEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simEventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *simEventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type simTransport struct {
	w    *World
	opts SimOptions

	reqs    chan simReq
	replies []chan simReply
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once

	// Everything below is owned by the scheduler goroutine.
	rng      *rand.Rand
	pes      []simPE
	events   simEventHeap
	now      uint64 // virtual time, ns
	seq      uint64
	steps    uint64
	running  int
	done     int
	forced   []byte
	barGen   uint64
	failMode bool
	log      *bufio.Writer
	logErr   error
}

func newSimTransport(w *World) *simTransport {
	opts := w.cfg.Sim
	opts.setDefaults()
	n := w.cfg.NumPEs
	t := &simTransport{
		w:       w,
		opts:    opts,
		reqs:    make(chan simReq, 4*n+64),
		replies: make([]chan simReply, n),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pes:     make([]simPE, n),
		running: n,
		forced:  opts.Choices,
	}
	for i := range t.replies {
		t.replies[i] = make(chan simReply, 1)
	}
	if opts.Log != nil {
		t.log = bufio.NewWriterSize(opts.Log, 1<<16)
	}
	// Stagger the start grants deterministically BEFORE any request can
	// arrive: the PE goroutines all launch at once, so their start
	// requests arrive in nondeterministic order, and nothing about
	// handling them may depend on that order.
	for i := range t.pes {
		t.pes[i].readyAt = t.drawLatency()
	}
	// Schedule crash injections (and their dead declarations) as virtual
	// events. An empty schedule pushes nothing and draws nothing, keeping
	// fault-free runs byte-identical.
	for _, k := range opts.Kill {
		if k.Rank < 0 || k.Rank >= n {
			continue
		}
		at := uint64(max64(0, int64(k.At)))
		heap.Push(&t.events, simEvent{at: at, seq: t.nextSeq(), kind: simEvKill, op: opReq{to: k.Rank}})
		heap.Push(&t.events, simEvent{at: at + uint64(w.cfg.DeadAfter), seq: t.nextSeq(), kind: simEvDead, op: opReq{to: k.Rank}})
	}
	// Membership churn schedules work the same way: virtual events, no
	// randomness drawn, nothing pushed for an empty schedule.
	for _, c := range opts.Churn {
		if c.Rank < 0 || c.Rank >= n {
			continue
		}
		var join uint64
		if c.Join {
			join = 1
		}
		at := uint64(max64(0, int64(c.At)))
		heap.Push(&t.events, simEvent{at: at, seq: t.nextSeq(), kind: simEvChurn, op: opReq{to: c.Rank, v1: join}})
	}
	go t.run()
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- PE-side API (any PE goroutine) ---------------------------------------

func (t *simTransport) send(r simReq) {
	select {
	case t.reqs <- r:
	case <-t.stopped:
	}
}

func (t *simTransport) call(r simReq) simReply {
	select {
	case t.reqs <- r:
	case <-t.stopped:
		return simReply{err: fmt.Errorf("shmem/sim: transport closed")}
	}
	select {
	case rep := <-t.replies[r.rank]:
		return rep
	case <-t.stopped:
		return simReply{err: fmt.Errorf("shmem/sim: transport closed")}
	}
}

func (t *simTransport) peStart(rank int) error {
	return t.call(simReq{kind: simReqStart, rank: rank}).err
}

func (t *simTransport) peDone(rank int) {
	t.call(simReq{kind: simReqDone, rank: rank})
}

func (t *simTransport) relax(rank int) {
	t.call(simReq{kind: simReqRelax, rank: rank})
}

func (t *simTransport) barrier(rank int) error {
	return t.call(simReq{kind: simReqBarrier, rank: rank}).err
}

// waitWord parks in the scheduler; the wait resolves in virtual time, and
// the scheduler ends it early by waitReq.giveUp, as the wall-clock loop does.
func (t *simTransport) waitWord(r waitReq) (uint64, error) {
	rep := t.call(simReq{kind: simReqWait, rank: r.rank, wait: r})
	return rep.val, rep.err
}

// --- transport interface ---------------------------------------------------

func (t *simTransport) blocking(r opReq) (uint64, []byte, error) {
	rep := t.call(simReq{kind: simReqOp, rank: r.from, op: r})
	return rep.val, rep.data, rep.err
}

func (t *simTransport) nbi(r opReq) error {
	// The delivery event outlives the call; it must own its source bytes.
	if r.buf != nil {
		r.buf = append([]byte(nil), r.buf...)
	}
	t.send(simReq{kind: simReqNBI, rank: r.from, op: r})
	return nil
}

func (t *simTransport) quiet(from int) error {
	return t.call(simReq{kind: simReqQuiet, rank: from}).err
}

func (t *simTransport) close() error {
	t.once.Do(func() { close(t.stop) })
	<-t.stopped
	return t.logErr
}

// --- Scheduler (single goroutine) ------------------------------------------

func (t *simTransport) run() {
	defer close(t.stopped)
	for {
		if t.w.failed.Load() && !t.failMode {
			t.enterFailMode()
		}
		if t.done == len(t.pes) {
			t.drainEvents()
			select {
			case r := <-t.reqs:
				t.handle(r)
			case <-t.stop:
				t.flushLog()
				return
			}
			continue
		}
		if t.running > 0 {
			select {
			case r := <-t.reqs:
				t.handle(r)
			case <-t.stop:
				t.flushLog()
				return
			}
			continue
		}
		t.step()
	}
}

func (t *simTransport) nextSeq() uint64 { t.seq++; return t.seq }

func (t *simTransport) drawLatency() uint64 {
	lo, hi := uint64(simMinLatency), uint64(simMaxLatency)
	return lo + uint64(t.rng.Int63n(int64(hi-lo+1)))
}

func (t *simTransport) drawYield() uint64 {
	y := int64(simYieldCost)
	return uint64(y) + uint64(t.rng.Int63n(y+1))
}

func delayNS(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d)
}

func (t *simTransport) worldErr() error {
	if err := t.w.Err(); err != nil {
		return err
	}
	return fmt.Errorf("shmem/sim: world failed")
}

func (t *simTransport) handle(r simReq) {
	pe := &t.pes[r.rank]
	if r.kind == simReqDone {
		// Done completes the lockstep handshake whatever state the world or
		// the PE is in.
		pe.state = simPEDone
		t.running--
		t.done++
		if !t.failMode {
			pe.vclock = t.now
			t.logf("%d %d don pe=%d\n", t.nextSeq(), t.now, r.rank)
		}
		t.replies[r.rank] <- simReply{}
		return
	}
	// A dead world, or a crash-injected PE, gets nothing done: injections
	// are swallowed (a dead NIC injects nothing) and every other request
	// fails, so the body unwinds promptly.
	var refuse error
	if t.failMode {
		refuse = t.worldErr()
	} else if t.w.live.Killed(r.rank) {
		refuse = fmt.Errorf("shmem: PE %d: %w", r.rank, ErrPEKilled)
	}
	if refuse != nil {
		if r.kind != simReqNBI {
			t.replies[r.rank] <- simReply{err: refuse}
		}
		return
	}
	switch r.kind {
	case simReqStart:
		// readyAt was staggered at construction (arrival order of start
		// requests is nondeterministic, so no draws here).
		pe.state = simPEBlockedOp
		pe.req = r
		t.running--
	case simReqOp:
		v := t.w.verdict(&r.op)
		pe.state = simPEBlockedOp
		pe.req = r
		pe.readyAt = pe.vclock + t.drawLatency() + delayNS(v.Delay)
		pe.failErr = nil
		if err := v.failure(); err != nil {
			pe.failErr = opError(r.op.op, r.rank, r.op.to, err)
		}
		t.running--
	case simReqNBI:
		t.handleNBI(r.op)
	case simReqQuiet, simReqWait:
		if r.kind == simReqWait {
			if err := r.wait.giveUp(t.w, false, 0); err != nil {
				t.replies[r.rank] <- simReply{err: err}
				return
			}
		}
		pe.state = simPEBlockedCond
		pe.req = r
		pe.deadline = 0
		if r.kind == simReqWait && r.wait.timeout > 0 {
			pe.deadline = pe.vclock + uint64(r.wait.timeout)
		}
		t.running--
	case simReqRelax:
		pe.state = simPEBlockedOp
		pe.req = r
		pe.readyAt = pe.vclock + t.drawYield()
		t.running--
	case simReqBarrier:
		if err := t.w.bars[r.rank].failed(); err != nil {
			t.replies[r.rank] <- simReply{err: err}
			return
		}
		pe.state = simPEBarrier
		pe.req = r
		t.running--
		t.maybeReleaseBarrier()
	}
}

func (t *simTransport) handleNBI(r opReq) {
	pe := &t.pes[r.from]
	if r.to < 0 || r.to >= len(t.w.pes) {
		t.failWorld(fmt.Sprintf("NBI %v from PE %d targets PE %d out of range", r.op, r.from, r.to))
		return
	}
	v := t.w.verdict(&r)
	dup := v.Duplicate && r.op.redeliverable() && !v.dropped()
	pe.vclock += uint64(simYieldCost) // injection overhead
	drop := v.dropped()
	at := pe.vclock + t.drawLatency() + delayNS(v.Delay)
	pe.pending++
	ev := simEvent{at: at, seq: t.nextSeq(), op: r, drop: drop, pendingDec: true}
	heap.Push(&t.events, ev)
	t.logf("%d %d nbi %v %d->%d a=%#x v=%d at=%d drop=%t dup=%t\n",
		ev.seq, t.now, r.op, r.from, r.to, uint64(r.addr), r.v1, at, drop, dup)
	if dup {
		ev.seq = t.nextSeq()
		ev.at = pe.vclock + t.drawLatency()
		ev.pendingDec = false
		heap.Push(&t.events, ev)
	}
}

func (t *simTransport) maybeReleaseBarrier() {
	arrived := 0
	for i := range t.pes {
		if t.pes[i].state == simPEBarrier {
			arrived++
		}
	}
	if arrived < len(t.pes) {
		return
	}
	t.barGen++
	t.logf("%d %d bar gen=%d\n", t.nextSeq(), t.now, t.barGen)
	// Release one at a time: each PE gets a staggered wake so at most one
	// runs at once (drawn in rank order — deterministic).
	for i := range t.pes {
		pe := &t.pes[i]
		pe.state = simPEBlockedOp
		pe.req = simReq{kind: simReqBarrier, rank: i}
		pe.readyAt = t.now + t.drawYield()
	}
}

// step makes exactly one scheduler decision: deliver the chosen event or
// wake the chosen PE.
func (t *simTransport) step() {
	t.steps++
	isEvent, rank, at, ok := t.choose()
	if !ok {
		t.failWorld("deadlock: no deliverable events and every PE is parked")
		return
	}
	if at > uint64(t.opts.MaxVirtualTime) {
		t.failWorld(fmt.Sprintf("virtual-time budget %v exceeded (livelock?)", t.opts.MaxVirtualTime))
		return
	}
	if t.steps > t.opts.MaxSteps {
		t.failWorld(fmt.Sprintf("step budget %d exceeded (livelock?)", t.opts.MaxSteps))
		return
	}
	if at > t.now {
		t.now = at
	}
	if isEvent {
		t.deliver()
		return
	}
	t.wake(rank)
}

// choose picks the next action: the earliest of the pending delivery (heap
// top) and each eligible PE, unless a forced-choice prefix or chaos mode
// overrides the pick among near-simultaneous candidates.
func (t *simTransport) choose() (isEvent bool, rank int, at uint64, ok bool) {
	type cand struct {
		isEvent bool
		rank    int
		at      uint64
	}
	var cands []cand
	if len(t.events) > 0 {
		cands = append(cands, cand{isEvent: true, at: t.events[0].at})
	}
	for i := range t.pes {
		pe := &t.pes[i]
		switch pe.state {
		case simPEBlockedOp:
			cands = append(cands, cand{rank: i, at: pe.readyAt})
		case simPEBlockedCond:
			if t.condSatisfied(pe) {
				cands = append(cands, cand{rank: i, at: t.now})
			} else if pe.deadline > 0 {
				cands = append(cands, cand{rank: i, at: pe.deadline})
			}
		}
	}
	if len(cands) == 0 {
		return false, 0, 0, false
	}
	best := 0
	for i, c := range cands[1:] {
		if c.at < cands[best].at {
			best = i + 1
		}
	}
	pick := best
	if len(t.forced) > 0 || t.opts.Chaos {
		// Reorder only among candidates close to the frontier; letting a
		// far-future timeout jump the clock would fire it before the
		// deliveries that satisfy it.
		window := cands[best].at + 4*uint64(simMaxLatency)
		near := make([]int, 0, len(cands))
		for i, c := range cands {
			if c.at <= window {
				near = append(near, i)
			}
		}
		if len(t.forced) > 0 {
			pick = near[int(t.forced[0])%len(near)]
			t.forced = t.forced[1:]
		} else {
			pick = near[t.rng.Intn(len(near))]
		}
	}
	c := cands[pick]
	return c.isEvent, c.rank, c.at, true
}

func (t *simTransport) condSatisfied(pe *simPE) bool {
	switch pe.req.kind {
	case simReqQuiet:
		return pe.pending == 0
	case simReqWait:
		return pe.req.wait.holds(t.waitedWord(pe))
	}
	return false
}

// waitedWord loads the word a parked WaitUntil64 watches (address and
// comparison were validated PE-side).
func (t *simTransport) waitedWord(pe *simPE) uint64 {
	return atomic.LoadUint64(&t.w.pes[pe.req.rank].words[pe.req.wait.addr/WordSize])
}

// deliver pops and applies the earliest pending event (an NBI delivery, a
// scheduled kill, or a dead declaration).
func (t *simTransport) deliver() {
	ev := heap.Pop(&t.events).(simEvent)
	if ev.at > t.now {
		t.now = ev.at
	}
	switch ev.kind {
	case simEvKill:
		t.deliverKill(ev.op.to)
		return
	case simEvDead:
		t.deliverDead(ev.op.to)
		return
	case simEvChurn:
		t.deliverChurn(ev.op.to, ev.op.v1 != 0)
		return
	}
	r := ev.op
	if ev.drop || t.w.live.Killed(r.to) {
		// A delivery into a crashed PE's heap is lost in the fabric; the
		// initiator's pending count still drains so its Quiet completes.
		t.logf("%d %d dlv %v %d->%d a=%#x dropped\n", t.nextSeq(), t.now, r.op, r.from, r.to, uint64(r.addr))
	} else {
		if _, _, err := t.w.land(t.w.pes[r.to], &r, false, time.Time{}, nil); err != nil {
			t.failWorld(err.Error())
			return
		}
		t.logf("%d %d dlv %v %d->%d a=%#x v=%d\n", t.nextSeq(), t.now, r.op, r.from, r.to, uint64(r.addr), r.v1)
	}
	if ev.pendingDec {
		t.pes[r.from].pending--
	}
}

// deliverKill fires a scheduled crash: the victim's liveness flags flip and
// — since every PE is parked whenever the scheduler steps — the victim is
// woken with ErrPEKilled so its body unwinds.
func (t *simTransport) deliverKill(rank int) {
	t.w.live.crash(rank)
	t.logf("%d %d kil pe=%d\n", t.nextSeq(), t.now, rank)
	t.unpark(rank, fmt.Errorf("shmem: PE %d: %w", rank, ErrPEKilled))
}

// unpark resumes a PE parked in the scheduler — in an op, a condition or
// the barrier — with err, so its body unwinds. PEs that are running or
// done are left alone.
func (t *simTransport) unpark(rank int, err error) {
	pe := &t.pes[rank]
	switch pe.state {
	case simPEBlockedOp, simPEBlockedCond, simPEBarrier:
		pe.state = simPERunning
		pe.vclock = t.now
		t.running++
		t.replies[rank] <- simReply{err: err}
	}
}

// deliverChurn fires a scheduled membership transition at its virtual
// time. Only the Begin* half happens here; the affected PE observes the
// state from its scheduler loop and completes the transition itself, so
// drains stay loss-free. A transition refused by the state machine (bad
// schedule) is logged and otherwise ignored — both outcomes are
// deterministic, so replays stay byte-identical.
func (t *simTransport) deliverChurn(rank int, join bool) {
	var err error
	if join {
		err = t.w.live.BeginJoin(rank)
	} else {
		err = t.w.live.BeginDrain(rank)
	}
	ok := 1
	if err != nil {
		ok = 0
	}
	if join {
		t.logf("%d %d chn join pe=%d ok=%d\n", t.nextSeq(), t.now, rank, ok)
	} else {
		t.logf("%d %d chn drain pe=%d ok=%d\n", t.nextSeq(), t.now, rank, ok)
	}
}

// deliverDead declares a killed PE dead after the configured DeadAfter:
// survivors parked in barriers or WaitUntil64 unwind by the give-up rule.
func (t *simTransport) deliverDead(rank int) {
	t.w.live.MarkDead(rank)
	t.logf("%d %d ded pe=%d\n", t.nextSeq(), t.now, rank)
	for i := range t.pes {
		var err error
		switch pe := &t.pes[i]; {
		case i == rank:
		case pe.state == simPEBarrier:
			err = t.w.bars[i].failed()
		case pe.state == simPEBlockedCond && pe.req.kind == simReqWait:
			err = pe.req.wait.giveUp(t.w, false, t.waitedWord(pe))
		}
		if err != nil {
			t.unpark(i, err)
		}
	}
}

// drainEvents applies all remaining deliveries once every PE is done, so
// the log is complete and deterministic before close.
func (t *simTransport) drainEvents() {
	for len(t.events) > 0 && !t.failMode {
		t.deliver()
	}
}

// wake resumes one parked PE: applies its blocking op (if any), replies,
// and marks it running.
func (t *simTransport) wake(rank int) {
	pe := &t.pes[rank]
	pe.vclock = t.now
	var rep simReply
	switch pe.state {
	case simPEBlockedOp:
		switch pe.req.kind {
		case simReqStart:
			t.logf("%d %d sta pe=%d\n", t.nextSeq(), t.now, rank)
		case simReqRelax, simReqBarrier:
			// Nothing to apply.
		case simReqOp:
			r := pe.req.op
			// A target that crashed while this op was in flight can never
			// complete the round trip; a fault verdict fails it likewise.
			var err error
			if lv := t.w.live; lv.events.Load() != 0 {
				err = lv.targetGone(r.op, r.from, r.to)
			}
			if err == nil {
				err = pe.failErr
			}
			if err != nil {
				rep = simReply{err: err}
				t.logf("%d %d op %v %d->%d a=%#x err=%v\n",
					t.nextSeq(), t.now, r.op, rank, r.to, uint64(r.addr), err)
			} else {
				rep = t.applyOp(r)
				t.logf("%d %d op %v %d->%d a=%#x v=%d -> %d\n",
					t.nextSeq(), t.now, r.op, rank, r.to, uint64(r.addr), r.v1, rep.val)
			}
			pe.failErr = nil
		}
	case simPEBlockedCond:
		switch pe.req.kind {
		case simReqQuiet:
			t.logf("%d %d qui pe=%d\n", t.nextSeq(), t.now, rank)
		case simReqWait:
			v := t.waitedWord(pe)
			if pe.req.wait.holds(v) {
				rep = simReply{val: v}
				t.logf("%d %d wtu pe=%d a=%#x -> %d\n", t.nextSeq(), t.now, rank, uint64(pe.req.wait.addr), v)
			} else {
				// Woken unsatisfied: the virtual deadline passed.
				rep = simReply{err: pe.req.wait.giveUp(t.w, true, v)}
				t.logf("%d %d wtu pe=%d a=%#x timeout\n", t.nextSeq(), t.now, rank, uint64(pe.req.wait.addr))
			}
		}
	default:
		t.failWorld(fmt.Sprintf("woke PE %d in state %s", rank, simStateNames[pe.state]))
		return
	}
	pe.state = simPERunning
	t.running++
	t.replies[rank] <- rep
}

// applyOp executes a woken blocking operation against the target heap.
func (t *simTransport) applyOp(r opReq) simReply {
	pe, err := t.w.target(r.to)
	if err != nil {
		return simReply{err: err}
	}
	// The sim redelivers only injections, each as a delivery event of its
	// own (handleNBI), so nothing lands twice here.
	val, data, err := t.w.land(pe, &r, false, time.Time{}, nil)
	return simReply{val: val, data: data, err: err}
}

// failWorld records a scheduler-detected failure (deadlock, livelock,
// bad NBI) with a full state dump and unblocks every parked PE.
func (t *simTransport) failWorld(msg string) {
	err := fmt.Errorf("shmem/sim: %s (seed=%d vt=%v step=%d)\n%s",
		msg, t.opts.Seed, time.Duration(t.now), t.steps, t.stateDump())
	t.logf("%d %d fail %s\n", t.nextSeq(), t.now, msg)
	t.w.fail(err)
	t.w.DumpFlight("sim-failure: " + msg)
	t.enterFailMode()
}

// enterFailMode wakes every parked PE with the world error so bodies
// unwind; determinism no longer matters once the world has failed.
func (t *simTransport) enterFailMode() {
	t.failMode = true
	t.events = nil
	err := t.worldErr()
	for i := range t.pes {
		t.unpark(i, err)
	}
	t.flushLog()
}

func (t *simTransport) stateDump() string {
	s := fmt.Sprintf("scheduler: vt=%v steps=%d events=%d running=%d done=%d\n",
		time.Duration(t.now), t.steps, len(t.events), t.running, t.done)
	for i := range t.pes {
		pe := &t.pes[i]
		s += fmt.Sprintf("  PE %d: %s", i, simStateNames[pe.state])
		switch pe.state {
		case simPEBlockedOp:
			if pe.req.kind == simReqOp {
				s += fmt.Sprintf(" op=%v to=%d a=%#x ready=%v", pe.req.op.op, pe.req.op.to, uint64(pe.req.op.addr), time.Duration(pe.readyAt))
			} else {
				s += fmt.Sprintf(" kind=%d ready=%v", pe.req.kind, time.Duration(pe.readyAt))
			}
		case simPEBlockedCond:
			if pe.req.kind == simReqQuiet {
				s += fmt.Sprintf(" quiet pending=%d", pe.pending)
			} else {
				s += fmt.Sprintf(" wait a=%#x %v %d deadline=%v", uint64(pe.req.wait.addr), pe.req.wait.cmp, pe.req.wait.operand, time.Duration(pe.deadline))
			}
		}
		s += fmt.Sprintf(" vclock=%v pending=%d\n", time.Duration(pe.vclock), pe.pending)
	}
	return s
}

func (t *simTransport) logf(format string, args ...any) {
	if t.log == nil {
		return
	}
	if _, err := fmt.Fprintf(t.log, format, args...); err != nil && t.logErr == nil {
		t.logErr = err
	}
}

func (t *simTransport) flushLog() {
	if t.log == nil {
		return
	}
	if err := t.log.Flush(); err != nil && t.logErr == nil {
		t.logErr = err
	}
}
