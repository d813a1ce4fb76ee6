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
// in the FoundationDB tradition. The world runs in lockstep on a virtual
// clock — at most one PE goroutine executes at any moment; every other PE
// is parked inside a transport operation, a wait on a word (WaitUntil64,
// or the barrier's generation word on rank 0), or a yield point. Every
// latency, delivery time, and schedule decision is drawn from one PRNG
// seeded by SimOptions.Seed, so an entire multi-PE pool run — steals,
// epoch flips, crashes, termination waves — replays bit-identically from
// the seed.
//
// There is no scheduler goroutine. The lockstep token is one mutex that
// guards all scheduler state, and the PEs pass it: a PE-side call takes
// the mutex, records what it waits for and parks; when that leaves no PE
// running, the same goroutine steps the scheduler (delivers the earliest
// event or wakes the earliest PE) until it has woken one — possibly
// itself. A woken call applies its own op and logs it at the virtual time
// it was woken at. Injections and a finished body never park.
//
// PE code running under the sim must block only through shmem primitives
// (blocking ops, Quiet, Barrier, WaitUntil64, or a Ctx.NewWait in poll loops):
// a raw spin on local memory is invisible to the scheduler and holds the
// lockstep token forever. The runtime packages (core, pool, term) satisfy
// this by routing their poll loops through Wait.Poll.

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
	// scheduler action (grants, op applications, NBI deliveries, satisfied
	// waits). Byte-identical across runs with identical inputs.
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
// yield or NBI injection costs simYieldCost (a yield up to twice
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

// What a parked PE waits for (simPE.kind).
const (
	simWaitStart = iota // the start grant, before its body runs
	simWaitOp           // a blocking one-sided operation
	simWaitQuiet        // its NBI deliveries
	simWaitWord         // WaitUntil64 or the barrier's generation word
	simWaitYield        // a Yield, Wait.Poll or Compute hand-back
)

// Per-PE scheduler states.
const (
	simPERunning     = iota
	simPEBlockedOp   // parked until readyAt
	simPEBlockedCond // parked in quiet or wait-until
	simPEDone
)

var simStateNames = [...]string{"running", "blocked-op", "blocked-cond", "done"}

type simPE struct {
	state    int
	kind     int
	op       opReq   // simWaitOp, for the state dump
	wait     waitReq // simWaitWord
	readyAt  uint64  // virtual wake time for simPEBlockedOp
	deadline uint64  // virtual timeout for simWaitWord (0 = none)
	err      error   // handed to the parked call by its wake: it unwinds
	vclock   uint64  // PE-local virtual clock
	pending  int     // NBI deliveries in flight from this PE
	wake     sync.Cond
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

	// mu is the lockstep token and guards everything below.
	mu       sync.Mutex
	rng      *rand.Rand
	pes      []simPE
	events   simEventHeap
	now      uint64 // virtual time, ns
	seq      uint64
	steps    uint64
	running  int
	done     int
	forced   []byte
	near     []int // chaos and forced choices: the near-frontier candidates
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
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pes:     make([]simPE, n),
		running: n,
		forced:  opts.Choices,
	}
	if opts.Log != nil {
		t.log = bufio.NewWriterSize(opts.Log, 1<<16)
	}
	// Stagger the start grants deterministically up front: the PE
	// goroutines all launch at once and ask for them in nondeterministic
	// order, and nothing about granting them may depend on that order.
	for i := range t.pes {
		t.pes[i].wake.L = &t.mu
		t.pes[i].readyAt = t.drawLatency()
	}
	// Schedule crash injections (and their dead declarations) as virtual
	// events. An empty schedule pushes nothing and draws nothing, keeping
	// fault-free runs byte-identical.
	for _, k := range opts.Kill {
		if k.Rank < 0 || k.Rank >= n {
			continue
		}
		at := uint64(max(0, k.At))
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
		at := uint64(max(0, c.At))
		heap.Push(&t.events, simEvent{at: at, seq: t.nextSeq(), kind: simEvChurn, op: opReq{to: c.Rank, v1: join}})
	}
	return t
}

// --- PE-side calls: each takes the token ------------------------------------

// refuse says why rank's call must fail instead of parking. A dead world,
// or a crash-injected PE, gets nothing done: injections are swallowed (a
// dead NIC injects nothing) and every other call fails, so the body
// unwinds promptly.
func (t *simTransport) refuse(rank int) error {
	if t.w.failed.Load() && !t.failMode {
		t.enterFailMode()
	}
	if t.failMode {
		return t.worldErr()
	}
	if t.w.live.Killed(rank) {
		return fmt.Errorf("shmem: PE %d: %w", rank, ErrPEKilled)
	}
	return nil
}

// park gives up the token: rank, whose state and wait the caller has
// recorded, stops running, and if no PE runs now this goroutine steps the
// world until one does. It returns once rank is woken, with the error its
// wake handed it.
func (t *simTransport) park(rank int) error {
	pe := &t.pes[rank]
	t.running--
	t.schedule()
	for pe.state != simPERunning {
		pe.wake.Wait()
	}
	err := pe.err
	pe.err = nil
	return err
}

// schedule steps the world while no PE runs and some PE is not done; once
// every PE is done it applies the deliveries still in flight, so the log
// is complete before close.
func (t *simTransport) schedule() {
	for t.running == 0 {
		if t.w.failed.Load() && !t.failMode {
			t.enterFailMode()
			continue
		}
		if t.done == len(t.pes) {
			for len(t.events) > 0 && !t.failMode {
				t.deliver()
			}
			return
		}
		t.step()
	}
}

func (t *simTransport) peStart(rank int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.refuse(rank); err != nil {
		return err
	}
	// readyAt was staggered at construction.
	t.pes[rank].state, t.pes[rank].kind = simPEBlockedOp, simWaitStart
	if err := t.park(rank); err != nil {
		return err
	}
	t.logf("%d %d sta pe=%d\n", t.nextSeq(), t.now, rank)
	return nil
}

// peDone hands the finished PE's slot back whatever state the world or the
// PE is in.
func (t *simTransport) peDone(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pe := &t.pes[rank]
	pe.state = simPEDone
	t.running--
	t.done++
	if !t.failMode {
		pe.vclock = t.now
		t.logf("%d %d don pe=%d\n", t.nextSeq(), t.now, rank)
	}
	t.schedule()
}

// yield parks rank for a Compute charge d, or a drawn yield cost if d is 0.
func (t *simTransport) yield(rank int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refuse(rank) != nil {
		return
	}
	pe := &t.pes[rank]
	pe.state, pe.kind = simPEBlockedOp, simWaitYield
	if pe.readyAt = pe.vclock + uint64(d); d == 0 {
		pe.readyAt += t.drawYield()
	}
	t.park(rank)
}

// waitWord parks the caller until the word holds, resolving the wait in
// virtual time and ending it early by waitReq.giveUp, as the wall-clock
// loop does.
func (t *simTransport) waitWord(r waitReq) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.refuse(r.rank); err != nil {
		return 0, err
	}
	if err := r.giveUp(t.w, false, 0); err != nil {
		return 0, err
	}
	pe := &t.pes[r.rank]
	pe.state, pe.kind, pe.wait, pe.deadline = simPEBlockedCond, simWaitWord, r, 0
	if r.timeout > 0 {
		pe.deadline = pe.vclock + uint64(r.timeout)
	}
	if err := t.park(r.rank); err != nil {
		return 0, err
	}
	v := t.waitedWord(pe)
	if r.holds(v) {
		t.logf("%d %d wtu pe=%d a=%#x -> %d\n", t.nextSeq(), t.now, r.rank, uint64(r.addr), v)
		return v, nil
	}
	// Woken unsatisfied: the virtual deadline passed.
	t.logf("%d %d wtu pe=%d a=%#x timeout\n", t.nextSeq(), t.now, r.rank, uint64(r.addr))
	return 0, r.giveUp(t.w, true, v)
}

// clock is rank's virtual clock, for the protocol's own poll deadlines.
func (t *simTransport) clock(rank int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Unix(0, int64(t.pes[rank].vclock))
}

// SimSteps is the number of scheduler decisions a TransportSim world has
// made so far (0 on every other transport).
func (w *World) SimSteps() uint64 {
	if w.sim == nil {
		return 0
	}
	w.sim.mu.Lock()
	defer w.sim.mu.Unlock()
	return w.sim.steps
}

// --- transport interface ---------------------------------------------------

func (t *simTransport) blocking(r opReq) (uint64, []byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.refuse(r.from); err != nil {
		return 0, nil, err
	}
	pe := &t.pes[r.from]
	v := t.w.verdict(&r)
	pe.state, pe.kind, pe.op = simPEBlockedOp, simWaitOp, r
	pe.readyAt = pe.vclock + t.drawLatency() + uint64(max(v.Delay, 0))
	failErr := v.failure()
	if failErr != nil {
		failErr = opError(r.op, r.from, r.to, failErr)
	}
	if err := t.park(r.from); err != nil {
		return 0, nil, err
	}
	// A target that crashed while this op was in flight can never complete
	// the round trip; a fault verdict fails it likewise.
	var err error
	if lv := t.w.live; lv.events.Load() != 0 {
		err = lv.targetGone(r.op, r.from, r.to)
	}
	if err == nil {
		err = failErr
	}
	if err != nil {
		t.logf("%d %d op %v %d->%d a=%#x err=%v\n", t.nextSeq(), t.now, r.op, r.from, r.to, uint64(r.addr), err)
		return 0, nil, err
	}
	val, data, err := t.applyOp(r)
	t.logf("%d %d op %v %d->%d a=%#x v=%d -> %d\n", t.nextSeq(), t.now, r.op, r.from, r.to, uint64(r.addr), r.v1, val)
	return val, data, err
}

func (t *simTransport) nbi(r opReq) error {
	// The delivery event outlives the call; it must own its source bytes.
	if r.buf != nil {
		r.buf = append([]byte(nil), r.buf...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refuse(r.from) == nil {
		t.handleNBI(r)
	}
	return nil
}

func (t *simTransport) quiet(from int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.refuse(from); err != nil {
		return err
	}
	pe := &t.pes[from]
	pe.state, pe.kind, pe.deadline = simPEBlockedCond, simWaitQuiet, 0
	if err := t.park(from); err != nil {
		return err
	}
	t.logf("%d %d qui pe=%d\n", t.nextSeq(), t.now, from)
	return nil
}

func (t *simTransport) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLog()
	return t.logErr
}

// --- Scheduler (run by whichever PE parks last) -----------------------------

func (t *simTransport) nextSeq() uint64 { t.seq++; return t.seq }

func (t *simTransport) drawLatency() uint64 {
	lo, hi := uint64(simMinLatency), uint64(simMaxLatency)
	return lo + uint64(t.rng.Int63n(int64(hi-lo+1)))
}

func (t *simTransport) drawYield() uint64 {
	y := int64(simYieldCost)
	return uint64(y) + uint64(t.rng.Int63n(y+1))
}

func (t *simTransport) worldErr() error {
	if err := t.w.Err(); err != nil {
		return err
	}
	return fmt.Errorf("shmem/sim: world failed")
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
	at := pe.vclock + t.drawLatency() + uint64(max(v.Delay, 0))
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

// step makes exactly one scheduler decision: deliver the chosen event or
// wake the chosen PE.
func (t *simTransport) step() {
	t.steps++
	rank, at, ok := t.choose()
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
	if rank < 0 {
		t.deliver()
		return
	}
	t.wake(rank, nil)
}

// due is when candidate i can next be chosen: for -1 the earliest pending
// delivery (heap top), for a parked PE its readyAt, now for a condition
// that holds, the deadline of one that does not — unless it lies past the
// virtual-time budget (the barrier's), which leaves a world whose every PE
// waits on a word no one will write diagnosed as deadlocked.
func (t *simTransport) due(i int) (at uint64, ok bool) {
	if i < 0 {
		if len(t.events) == 0 {
			return 0, false
		}
		return t.events[0].at, true
	}
	switch pe := &t.pes[i]; pe.state {
	case simPEBlockedOp:
		return pe.readyAt, true
	case simPEBlockedCond:
		if t.condSatisfied(pe) {
			return t.now, true
		}
		return pe.deadline, pe.deadline > 0 && pe.deadline <= uint64(t.opts.MaxVirtualTime)
	}
	return 0, false
}

// choose picks the next action in one scan: the earliest candidate, the
// event first and then the lowest rank on ties, unless a forced-choice
// prefix or chaos mode overrides the pick among near-simultaneous
// candidates.
func (t *simTransport) choose() (rank int, at uint64, ok bool) {
	for i := -1; i < len(t.pes); i++ {
		if a, c := t.due(i); c && (!ok || a < at) {
			rank, at, ok = i, a, true
		}
	}
	if !ok || (len(t.forced) == 0 && !t.opts.Chaos) {
		return rank, at, ok
	}
	// Reorder only among candidates close to the frontier; letting a
	// far-future timeout jump the clock would fire it before the
	// deliveries that satisfy it.
	window := at + 4*uint64(simMaxLatency)
	t.near = t.near[:0]
	for i := -1; i < len(t.pes); i++ {
		if a, c := t.due(i); c && a <= window {
			t.near = append(t.near, i)
		}
	}
	var pick int
	if len(t.forced) > 0 {
		pick = int(t.forced[0]) % len(t.near)
		t.forced = t.forced[1:]
	} else {
		pick = t.rng.Intn(len(t.near))
	}
	rank = t.near[pick]
	at, _ = t.due(rank)
	return rank, at, true
}

func (t *simTransport) condSatisfied(pe *simPE) bool {
	if pe.kind == simWaitQuiet {
		return pe.pending == 0
	}
	return pe.wait.holds(t.waitedWord(pe))
}

// waitedWord loads the word a parked WaitUntil64 watches (address and
// comparison were validated PE-side).
func (t *simTransport) waitedWord(pe *simPE) uint64 {
	return atomic.LoadUint64(&t.w.pes[pe.wait.on].words[pe.wait.addr/WordSize])
}

// deliver pops and applies the earliest pending event (an NBI delivery, a
// scheduled kill, a dead declaration or a churn transition).
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
	t.wake(rank, fmt.Errorf("shmem: PE %d: %w", rank, ErrPEKilled))
}

// wake resumes rank, if it is parked, at the current virtual time: its
// call returns err, or the error queued for it, or (both nil) goes on to
// apply what it waited for.
func (t *simTransport) wake(rank int, err error) {
	switch pe := &t.pes[rank]; pe.state {
	case simPEBlockedOp, simPEBlockedCond:
		pe.state = simPERunning
		pe.vclock = t.now
		if err != nil {
			pe.err = err
		}
		t.running++
		pe.wake.Signal()
	}
}

// deliverChurn fires a scheduled membership transition at its virtual
// time. Only the Begin* half happens here; the affected PE observes the
// state from its scheduler loop and completes the transition itself, so
// drains stay loss-free. A transition refused by the state machine (bad
// schedule) is logged and otherwise ignored — both outcomes are
// deterministic, so replays stay byte-identical.
func (t *simTransport) deliverChurn(rank int, join bool) {
	kind, begin := "drain", t.w.live.BeginDrain
	if join {
		kind, begin = "join", t.w.live.BeginJoin
	}
	ok := 1
	if begin(rank) != nil {
		ok = 0
	}
	t.logf("%d %d chn %s pe=%d ok=%d\n", t.nextSeq(), t.now, kind, rank, ok)
}

// deliverDead declares a killed PE dead after the configured DeadAfter:
// survivors parked on a word (a WaitUntil64, the barrier's) unwind by the
// give-up rule, each queued for its turn at the current virtual time
// rather than woken together, so they unwind one at a time in rank order.
func (t *simTransport) deliverDead(rank int) {
	t.w.live.MarkDead(rank)
	t.logf("%d %d ded pe=%d\n", t.nextSeq(), t.now, rank)
	for i := range t.pes {
		var err error
		switch pe := &t.pes[i]; {
		case i == rank:
		case pe.state == simPEBlockedCond && pe.kind == simWaitWord:
			err = pe.wait.giveUp(t.w, false, t.waitedWord(pe))
		}
		if err != nil {
			t.pes[i].state, t.pes[i].readyAt, t.pes[i].err = simPEBlockedOp, t.now, err
		}
	}
}

// applyOp executes a woken blocking operation against the target heap.
func (t *simTransport) applyOp(r opReq) (uint64, []byte, error) {
	pe, err := t.w.target(r.to)
	if err != nil {
		return 0, nil, err
	}
	// The sim redelivers only injections, each as a delivery event of its
	// own (handleNBI), so nothing lands twice here.
	return t.w.land(pe, &r, false, time.Time{}, nil)
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
		t.wake(i, err)
	}
	t.flushLog()
}

func (t *simTransport) stateDump() string {
	s := fmt.Sprintf("scheduler: vt=%v steps=%d events=%d running=%d done=%d\n",
		time.Duration(t.now), t.steps, len(t.events), t.running, t.done)
	for i := range t.pes {
		pe := &t.pes[i]
		s += fmt.Sprintf("  PE %d: %s", i, simStateNames[pe.state])
		switch {
		case pe.state == simPEBlockedOp && pe.kind == simWaitOp:
			s += fmt.Sprintf(" op=%v to=%d a=%#x ready=%v", pe.op.op, pe.op.to, uint64(pe.op.addr), time.Duration(pe.readyAt))
		case pe.state == simPEBlockedOp:
			s += fmt.Sprintf(" kind=%d ready=%v", pe.kind, time.Duration(pe.readyAt))
		case pe.state == simPEBlockedCond && pe.kind == simWaitQuiet:
			s += fmt.Sprintf(" quiet pending=%d", pe.pending)
		case pe.state == simPEBlockedCond:
			s += fmt.Sprintf(" %s on=%d deadline=%v", pe.wait.String(), pe.wait.on, time.Duration(pe.deadline))
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
