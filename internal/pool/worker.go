// Execution layer: the workers of one PE, organised as the paper's split
// queue applied once more, inside the PE. Every worker has a private part
// only it touches — no locking, no communication — and the PE has one
// shared part, an internal/ldeque ring, that a task enters only when it
// changes hands:
//
//	worker 0 (owner)  private part = the split queue's local portion (p.q),
//	                  and its own privDeque while p.q is full
//	worker i > 0      private part = its own privDeque
//	shared part       the ring: topped up, when below one task per worker,
//	                  by any worker holding two or more private tasks (up to
//	                  half of them); taken from by a worker whose private
//	                  pop came up empty
//
// The owner is a full worker — it spawns into, pops and runs from p.q as
// the paper's single-threaded PE does — that also runs the scheduler loop
// and alone drives every protocol owner op, so the single-owner invariants
// of internal/core hold at any worker count. What it takes from the ring
// lands in p.q, where Release exposes it to remote thieves. This is Wimmer
// & Träff's mixed-mode team with the paper's PE as the team of one.
//
// Each worker counts its spawns (before the task is visible anywhere) and
// executions (after the body returns) in plain fields of its own, and books
// its run time per burst (clockBurst). An executor copies its counts into
// its atomics; the owner's task path touches no shared word, and its counts
// reach the detector through publishCounts where a task changes hands.
package pool

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/ldeque"
	"sws/internal/obs"
	"sws/internal/task"
	"sws/internal/trace"
)

// workerState is one worker goroutine's slice of the execution layer.
// Worker 0 is the owner.
type workerState struct {
	id int
	tc TaskCtx
	// rng is this worker's independent deterministic stream (worker 0's
	// doubles as the PE's victim-selection stream).
	rng *rand.Rand
	// dq is the worker's private deque: an executor's private part, the
	// owner's overflow past a full split queue (Pool.push).
	dq *privDeque

	// nSpawned and nExecuted are this worker's termination counts, plain
	// memory it alone writes, read by Stats between jobs. spawned and
	// executed are the same counts as other goroutines read them during a
	// job: an executor stores its own as they move, the owner's are as of
	// its last publishCounts.
	nSpawned  uint64
	nExecuted uint64
	spawned   atomic.Uint64
	executed  atomic.Uint64
	// idleIters counts loop passes that found nothing to run: scheduler
	// iterations for the owner, empty ring polls for an executor.
	idleIters atomic.Uint64
	// execTime is this worker's run time (clockBurst), fromRing the tasks it
	// took from the ring: written by this worker only and read by Stats
	// between jobs, when executors are stopped (run's WaitGroup orders it).
	execTime time.Duration
	fromRing uint64
	// cell is the worker's own in the TaskTally it last counted in, tally.
	tally *TaskTally
	cell  *[2]uint64
	// Pad to two cache lines (112 -> 128 bytes): the counters above are
	// bumped per task, and unpadded workerStates — another PE's, or this
	// PE's executors' — are neighbours in one allocation span.
	_ [16]byte
}

// stagedTask is executor output only the owner may deliver: a SpawnOn for
// another PE's inbox, or (pe is this rank) a private task handed over by
// the executor of a PE that is leaving the membership.
type stagedTask struct {
	pe int
	d  task.Desc
}

// execLayer holds a PE's workers and the state they share.
type execLayer struct {
	// ring is the PE's shared part, shallow on purpose (4 slots per worker,
	// at least 16): it carries tasks between workers, it does not store them.
	ring    *ldeque.Queue
	workers []*workerState

	// mu guards staged: executors append and raise pending; the owner
	// swaps the slice out, locking only when pending says to.
	mu      sync.Mutex
	staged  []stagedTask
	pending atomic.Bool

	// err is the first executor failure; the owner surfaces it.
	err atomic.Pointer[error]

	stop atomic.Bool // executors exit (termination, error; rearmed per job)
	// handoff tells executors the PE is draining out or parked: they stage
	// their private deques for the owner to forward and take no more work.
	handoff atomic.Bool
	// Pad to two cache lines (88 -> 128 bytes), its own size class: every
	// pass reads workers, pending and err (uts_t1_local ran 10 % slower
	// with whatever neighbours the allocator dealt a 112-byte object).
	_ [40]byte
}

func newExecLayer(p *Pool, workers int, codec task.Codec) *execLayer {
	ex := &execLayer{ring: ldeque.MustNew(max(16, 4*workers))}
	for i := 0; i < workers; i++ {
		ws := &workerState{id: i, rng: rngStream(p.cfg.Seed, p.ctx.Rank(), i), dq: newPrivDeque(codec)}
		ws.tc = TaskCtx{p: p, w: ws}
		ex.workers = append(ex.workers, ws)
	}
	return ex
}

// fail records the first executor error.
func (ex *execLayer) fail(err error) { ex.err.CompareAndSwap(nil, &err) }

func (ex *execLayer) firstErr() error {
	if e := ex.err.Load(); e != nil {
		return *e
	}
	return nil
}

// stage hands an executor's already-counted task to the owner.
func (ex *execLayer) stage(pe int, d task.Desc) {
	ex.mu.Lock()
	ex.staged = append(ex.staged, stagedTask{pe: pe, d: d})
	ex.pending.Store(true)
	ex.mu.Unlock()
}

// takeStaged swaps out the staging area. A PE whose executors staged
// nothing (or that has none) pays one atomic load.
func (ex *execLayer) takeStaged() []stagedTask {
	if !ex.pending.Load() {
		return nil
	}
	ex.mu.Lock()
	staged := ex.staged
	ex.staged = nil
	ex.pending.Store(false)
	ex.mu.Unlock()
	return staged
}

// surplus is the sharing rule, the same for every worker: with the shared
// part below one task per worker, a worker holding two or more private
// tasks owes it up to half of them, as many as fit.
func (ex *execLayer) surplus(private int) int {
	if private < 2 {
		return 0
	}
	queued := ex.ring.Len()
	if queued >= len(ex.workers) {
		return 0
	}
	return min(private/2, ex.ring.Cap()-queued)
}

// spawn enqueues d on this PE on behalf of worker ws.
func (p *Pool) spawn(ws *workerState, d task.Desc) error {
	return p.spawnOn(ws, p.ctx.Rank(), d)
}

// spawnOn is the one spawn path: validate, count the task against ws, and
// make it runnable on PE pe. A target outside an elastic world's
// membership lands here instead, and stealing redistributes it: placement
// was a hint; the rank it named is draining, parked, or gone. So does a
// batch whose target died (mailbox.flush).
func (p *Pool) spawnOn(ws *workerState, pe int, d task.Desc) error {
	self := p.ctx.Rank()
	if pe != self {
		if pe < 0 || pe >= p.ctx.NumPEs() {
			return fmt.Errorf("pool: SpawnOn target %d out of range [0, %d)", pe, p.ctx.NumPEs())
		}
		if lv := p.ctx.Liveness(); lv.Elastic() && !lv.Member(pe) {
			pe = self
		}
	}
	if len(d.Payload) > p.cfg.PayloadCap {
		return fmt.Errorf("pool: payload %d bytes exceeds PayloadCap %d", len(d.Payload), p.cfg.PayloadCap)
	}
	if ws.id != 0 {
		// Is the caller the owner goroutine? No: an executor may touch
		// neither the protocol queue, the detector nor the mailbox. It
		// counts the task and keeps a local one in its private deque; one
		// for another PE it stages (with a payload copy: Spawn's caller may
		// reuse its buffer) for the owner, which publishes before sending.
		ws.nSpawned++
		ws.spawned.Store(ws.nSpawned)
		if pe == self {
			return ws.dq.push(d)
		}
		p.exec.stage(pe, task.Desc{Handle: d.Handle, Payload: bytes.Clone(d.Payload)})
		return nil
	}
	if pe == self {
		// The owner's private part is its own until it releases or shares
		// it, so counting after the push (a failed push fails the spawn
		// uncounted) hides nothing — and nothing publishes the count until
		// a hand-off needs it (publishCounts).
		if err := p.push(d); err != nil {
			return err
		}
		ws.nSpawned++
		return nil
	}
	// Count the spawn before sending; the flush publishes it.
	ws.nSpawned++
	return p.sendRemote(pe, d)
}

// sendRemote puts an already-counted task into the outbox. What it held for
// another target goes first, and a full outbox goes out at once; the rest
// waits for the owner's next flush point.
func (p *Pool) sendRemote(pe int, d task.Desc) error {
	if p.mbox.holdsOther(pe) {
		if err := p.flushRemote(); err != nil {
			return err
		}
	}
	full, err := p.mbox.add(pe, d)
	if err != nil {
		return err
	}
	p.tr.Record(trace.RemoteSpawn, int64(pe), 0, 0)
	if full {
		return p.flushRemote()
	}
	return nil
}

// flushRemote sends what the outbox holds as one batch, after publishing
// the counts that cover it (the receiver publishes their execution). The
// owner flushes where it would otherwise leave them waiting: a full outbox,
// a spawn to another target, a pass with nothing to run, the stepProgress
// beat, a termination probe, a drain or park flush; so a spawn reaches its
// target within 64 of the sender's passes. A batch whose target died lands
// home (landHome); any other failed flush fails the run. The empty test
// inlines: most of those points find nothing to send.
func (p *Pool) flushRemote() error {
	if p.mbox.outN == 0 {
		return nil
	}
	return p.sendOutbox()
}

func (p *Pool) sendOutbox() error {
	p.publishCounts()
	n, err := p.mbox.flush(p.landHome)
	p.bk.remoteSent.Add(uint64(n))
	return err
}

// landHome queues a task whose target died here, uncounted (its spawn is
// in the ledger); work moved, so a degraded wave must see activity.
func (p *Pool) landHome(d task.Desc) error {
	p.det.NoteActivity()
	return p.push(d)
}

// execute runs one task on behalf of worker ws and counts it. A traced
// run also times each body, for its TaskExec event and op=exec histogram.
func (p *Pool) execute(ws *workerState, d task.Desc) error {
	fn, err := p.reg.fn(d.Handle)
	if err != nil {
		return err
	}
	var t0 time.Time
	if p.tr != nil {
		t0 = p.ctx.Now()
	}
	if err := fn(&ws.tc, d.Payload); err != nil {
		return fmt.Errorf("pool: task %d failed: %w", d.Handle, err)
	}
	if p.tr != nil {
		el := p.ctx.Now().Sub(t0)
		p.lat.exec.Record(el)
		p.tr.Record(trace.TaskExec, int64(d.Handle), int64(el), 0)
	}
	// Counted after the body, whose child spawns are counted by now (the
	// order publishCounts' cut rests on).
	ws.nExecuted++
	return nil
}

// clockBurst is ws's exec clock at a pop: a task opens a burst at *burst
// unless one is open (zero between bursts), and an empty pop books the open
// one, its bodies and per-task path, as ws's run time.
func (p *Pool) clockBurst(ws *workerState, burst *time.Time, ran bool) {
	switch {
	case ran && burst.IsZero():
		*burst = p.ctx.Now()
	case !ran && !burst.IsZero():
		ws.execTime += p.ctx.Now().Sub(*burst)
		*burst = time.Time{}
	}
}

// yieldAfterTask is a worker's scheduling point after a task: Ctx.Yield, due
// on the obs.SampleEvery beat, called then and, under the lockstep sim, after
// every task; its burst is cut around each cede.
func (p *Pool) yieldAfterTask(ws *workerState, burst *time.Time) {
	if due := ws.nExecuted%obs.SampleEvery == 0; due || p.ctx.Lockstep() {
		if ceded, resumed := p.ctx.Yield(due); !resumed.IsZero() {
			ws.execTime += ceded.Sub(*burst)
			*burst = resumed
		}
	}
}

// executorLoop is a non-owner worker: run the newest private task, or one
// from the ring when there is none, then pay the ring what it owes; poll
// its wait when both are dry, so oversubscribed worlds stay live.
func (p *Pool) executorLoop(ws *workerState) {
	ex := p.exec
	wait := p.ctx.NewWait(0)
	var burst time.Time
	defer p.clockBurst(ws, &burst, false) // stop can land inside a burst
	for !ex.stop.Load() {
		d, ok, err := p.nextTask(ws)
		p.clockBurst(ws, &burst, ok)
		if ok {
			if err = p.execute(ws, d); err == nil {
				ws.executed.Store(ws.nExecuted)
				err = p.share(ws)
			}
		}
		if err != nil {
			ex.fail(err)
			return
		}
		if ok { // the scheduling point the owner ends a task with
			wait.Reset()
			p.yieldAfterTask(ws, &burst)
			continue
		}
		ws.idleIters.Add(1)
		wait.Poll()
	}
}

// nextTask is an executor's pop: its private deque, newest first, and the
// ring when that came up empty. On a PE that is leaving the membership it
// instead hands the deque to the owner — the only worker that can forward
// tasks to another PE — and reports nothing to run.
func (p *Pool) nextTask(ws *workerState) (task.Desc, bool, error) {
	ex := p.exec
	if ex.handoff.Load() {
		for ws.dq.n > 0 {
			d, err := ws.dq.takeOldest()
			if err != nil {
				return task.Desc{}, false, err
			}
			ex.stage(p.ctx.Rank(), d)
		}
		return task.Desc{}, false, nil
	}
	d, ok, err := ws.dq.pop()
	if ok || err != nil {
		return d, ok, err
	}
	if d, ok = ex.ring.TryPop(); ok {
		ws.fromRing++
	}
	return d, ok, nil
}

// share moves what executor ws owes the ring (surplus), oldest first: a
// depth-first worker's oldest tasks root its largest unexplored subtrees.
func (p *Pool) share(ws *workerState) error {
	for k := p.exec.surplus(ws.dq.n); k > 0; k-- {
		d, err := ws.dq.takeOldest()
		if err != nil {
			return err
		}
		if !p.exec.ring.TryPush(d) {
			return ws.dq.push(d) // another worker filled the ring first
		}
	}
	return nil
}

// publishCounts publishes the PE's counts, every worker's, to the
// termination detector as one consistent cut, and refreshes the owner's
// atomics. It loads every executor's executed counter before any spawned
// counter: a spawn is counted before its task is poppable and an execution
// after its body and child spawns, so no execution is published without its
// own and its children's spawns, and a probe is safe at any moment.
//
// A lagging cut is as safe as a fresh one provided no task counted only
// locally is shown to another PE, which would publish its execution. Those
// hand-offs are where the owner calls this: job start, before Release, every
// outbox flush and forward, a ring take, staged delivery, every drain or
// park flush and termination probe, the stepProgress beat for live readers,
// and once a peer is dead after every owner task. Fault-free never per task:
// the owner would take each executor's counter line once per task.
func (p *Pool) publishCounts() {
	ex := p.exec
	owner := ex.workers[0]
	var te, ts uint64
	for _, ws := range ex.workers[1:] {
		te += ws.executed.Load()
	}
	for _, ws := range ex.workers[1:] {
		ts += ws.spawned.Load()
	}
	te += owner.nExecuted
	ts += owner.nSpawned
	if ps, pe := p.det.Counts(); ts > ps || te > pe {
		p.det.Publish(int(ts-ps), int(te-pe))
		owner.spawned.Store(owner.nSpawned)
		owner.executed.Store(owner.nExecuted)
	}
}
