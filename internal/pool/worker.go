// Execution layer: the workers of one PE. Every PE has worker 0, the
// owner — the goroutine that runs the scheduler loop and alone drives every
// protocol owner op (Release/Acquire/Progress/Push/Pop, epoch flips,
// termination probes, mailbox sends), so the single-owner invariants of
// internal/core hold at any worker count. Config.Workers > 1 adds executor
// goroutines that spin on the intra-PE tier (an internal/ldeque MPMC ring)
// running tasks. Work flows
//
//	executor spawn -> ring -> (overflow, staged for the owner) -> wsq local -> shared,
//	owner spawn    -> wsq local -> ring (owner refill)          -> executors,
//
// so the SWS stealval protocol remains the inter-PE tier only: local
// workers exchange tasks with process atomics, and remote thieves see the
// surplus the owner releases — the two-level scheme of Wimmer & Träff
// style mixed-mode runtimes, with the paper's single-threaded PE as the
// team of one: no executors, nothing ever staged, the ring never touched.
//
// Task accounting is one scheme at every worker count: each worker counts
// its own spawns (before the task becomes visible anywhere) and executions
// (after the task body returns) in per-worker atomics, and Stats derives
// the PE totals and the per-worker rows from them. The owner, which may
// touch the termination detector, publishes its own counts the moment
// they change; executors' counts reach the detector through publishCounts,
// which the owner runs before anything an executor staged becomes remotely
// observable and before it publishes an execution of its own.
package pool

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/ldeque"
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

	// Termination counters (see term.Publish): spawned is incremented
	// before a spawned task becomes visible anywhere; executed after the
	// task body returns.
	spawned  atomic.Uint64
	executed atomic.Uint64
	// idleIters counts loop passes that found nothing to run: scheduler
	// iterations for the owner, empty ring polls for an executor.
	idleIters atomic.Uint64
	// execTime sums the bodies this worker timed and execSampled counts
	// them (see execute); both are written by this worker only and read by
	// Stats between jobs, when executors are stopped (run's WaitGroup
	// orders the two).
	execTime    time.Duration
	execSampled uint64
	// Pad to two cache lines (72 -> 128 bytes): the counters above are
	// bumped per task, and unpadded workerStates — another PE's, or this
	// PE's executors' — are neighbours in one allocation span.
	_ [56]byte
}

// stagedTask is executor output awaiting the owner: a spawn the ring had
// no room for (pe is this rank) or a SpawnOn for the owner to send.
type stagedTask struct {
	pe int
	d  task.Desc
}

// execLayer holds a PE's workers and the state they share.
type execLayer struct {
	dq      *ldeque.Queue
	workers []*workerState

	// mu guards staged. Executors append in short sections and raise
	// pending; the owner swaps the slice out wholesale, and takes the lock
	// only when pending says there is something to take.
	mu      sync.Mutex
	staged  []stagedTask
	pending atomic.Bool

	// err is the first executor failure; the owner surfaces it.
	err atomic.Pointer[error]

	// stop tells executors to exit (set at termination or on error;
	// rearmed at the start of each job).
	stop atomic.Bool

	// pubSpawned/pubExecuted are the executors' aggregate counts already
	// published to the termination detector (owner-only; monotonic across
	// jobs, like the detector's counters).
	pubSpawned  uint64
	pubExecuted uint64

	// refillTarget is the adaptive ring-refill batch: how deep
	// fillLocalTier fills the intra-PE ring, in tasks. It starts at the
	// classic fixed batch (2x workers) and tracks observed executor
	// starvation — bursty workloads that leave executors idling between
	// refills push it toward the ring capacity; steady ones decay it back
	// (owner-only).
	refillTarget int
	// refillIdleBase is the executor idle-iteration sum already accounted
	// for by refill adaptation (owner-only).
	refillIdleBase uint64
}

// newExecLayer builds the PE's workers. The ring is kept shallow on
// purpose (4 slots per worker, at least 16) so surplus work lives in the
// protocol queue where thieves can see it.
func newExecLayer(p *Pool, workers int) *execLayer {
	ex := &execLayer{dq: ldeque.MustNew(max(16, 4*workers)), refillTarget: 2 * workers}
	for i := 0; i < workers; i++ {
		ws := &workerState{id: i, rng: rngStream(p.cfg.Seed, p.ctx.Rank(), i)}
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

// takeStaged swaps out the staging area, returning executor output for the
// owner to publish and make visible. A PE whose executors staged nothing
// (or that has none) pays one atomic load.
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

// spawn enqueues d on this PE on behalf of worker ws.
func (p *Pool) spawn(ws *workerState, d task.Desc) error {
	return p.spawnOn(ws, p.ctx.Rank(), d)
}

// spawnOn is the one spawn path: validate, count the task against ws, and
// make it runnable on PE pe. A target outside an elastic world's
// membership lands here instead, and stealing redistributes it: placement
// was a hint; the rank it named is draining, parked, or gone.
func (p *Pool) spawnOn(ws *workerState, pe int, d task.Desc) error {
	self := p.ctx.Rank()
	if pe != self {
		if pe < 0 || pe >= p.ctx.NumPEs() {
			return fmt.Errorf("pool: SpawnOn target %d out of range [0, %d)", pe, p.ctx.NumPEs())
		}
		if lv := p.ctx.Liveness(); lv != nil && lv.Elastic() && !lv.Member(pe) {
			pe = self
		}
	}
	if len(d.Payload) > p.cfg.PayloadCap {
		return fmt.Errorf("pool: payload %d bytes exceeds PayloadCap %d", len(d.Payload), p.cfg.PayloadCap)
	}
	if ws.id != 0 {
		// Is the caller the owner goroutine? No: an executor may touch
		// neither the protocol queue, the detector nor the mailbox. It
		// counts the task, offers a local one to the ring, and stages the
		// rest for the owner, which publishes the count before the task
		// can be observed remotely.
		if len(d.Payload) > 0 {
			// The ring and the staging area keep a reference (the protocol
			// queue and the mailbox would copy); copying here preserves
			// Spawn's caller-may-reuse-buffer contract.
			d.Payload = append([]byte(nil), d.Payload...)
		}
		ws.spawned.Add(1)
		if pe != self || !p.exec.dq.TryPush(d) {
			p.exec.stage(pe, d)
		}
		return nil
	}
	if pe == self {
		// The local portion is owner-private until the owner itself
		// releases it or refills the ring, so counting after the push (a
		// full queue fails the spawn uncounted) hides nothing.
		if err := p.push(d); err != nil {
			return err
		}
		ws.spawned.Add(1)
		return p.det.TaskSpawned(1)
	}
	// Count the spawn before sending so termination detection sees the
	// task exist from the moment it can be observed anywhere.
	ws.spawned.Add(1)
	if err := p.det.TaskSpawned(1); err != nil {
		return err
	}
	return p.sendRemote(pe, d)
}

// sendRemote delivers an already-counted (and published) task to pe's
// inbox.
func (p *Pool) sendRemote(pe int, d task.Desc) error {
	if err := p.mbox.send(pe, d); err != nil {
		return err
	}
	p.st.RemoteSpawnsSent++
	p.tr.Record(trace.RemoteSpawn, int64(pe), 0)
	if p.live != nil {
		p.live.remoteSent.Add(1)
	}
	return nil
}

// execSampleEvery is the exec clock's sampling period: a worker times one
// task body in this many (two clock reads cost about as much as a UTS
// node), and Stats scales the sampled sum back up. With a trace buffer
// attached every task is timed, because every task gets a TaskExec event.
const execSampleEvery = 64

// execute runs one task on behalf of worker ws and counts it.
func (p *Pool) execute(ws *workerState, d task.Desc) error {
	fn, err := p.reg.fn(d.Handle)
	if err != nil {
		return err
	}
	timed := p.tr != nil || ws.executed.Load()%execSampleEvery == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if err := fn(&ws.tc, d.Payload); err != nil {
		return fmt.Errorf("pool: task %d failed: %w", d.Handle, err)
	}
	if timed {
		el := p.cal.Since(t0)
		ws.execTime += el
		ws.execSampled++
		p.lat.exec.Record(el)
		p.tr.Record(trace.TaskExec, int64(d.Handle), int64(el))
	}
	// Executed counts only after the body returned — by then every child
	// spawn is in some worker's spawned counter, so the owner's
	// executed-before-spawned load order covers them.
	ws.executed.Add(1)
	return nil
}

// executeOwned runs one task on the owner goroutine and publishes its
// execution. The task may have come off the ring with its spawn still in
// an executor's unpublished counter, so the executors' counts go first:
// the published pair must never show an execution whose spawn is missing.
func (p *Pool) executeOwned(d task.Desc) error {
	if err := p.execute(p.exec.workers[0], d); err != nil {
		return err
	}
	if err := p.publishCounts(); err != nil {
		return err
	}
	return p.det.TaskExecuted(1)
}

// executorLoop is a non-owner worker: pop from the intra-PE ring, run,
// repeat; yield (and occasionally sleep) when the ring is dry so
// oversubscribed worlds stay live.
func (p *Pool) executorLoop(ws *workerState) {
	ex := p.exec
	spins := 0
	for !ex.stop.Load() {
		d, ok := ex.dq.TryPop()
		if !ok {
			ws.idleIters.Add(1)
			spins++
			if spins%256 == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		spins = 0
		if err := p.execute(ws, d); err != nil {
			ex.fail(err)
			return
		}
	}
}

// publishCounts aggregates the executors' termination counters and
// publishes the deltas (the owner publishes its own counts directly). It
// loads every executed counter before any spawned counter: a task's spawn
// increment happens before it becomes poppable and its execution increment
// happens after its body (and all its child spawns) finished, so this
// order guarantees the published pair never shows an execution whose
// spawn — or whose children's spawns — are missing. That invariant is what
// makes termination probes safe at any moment, even with tasks mid-flight
// in other workers' hands: every outstanding task keeps some PE's
// published spawned ahead of the global executed sum.
func (p *Pool) publishCounts() error {
	ex := p.exec
	var te, ts uint64
	for _, ws := range ex.workers[1:] {
		te += ws.executed.Load()
	}
	for _, ws := range ex.workers[1:] {
		ts += ws.spawned.Load()
	}
	if ts > ex.pubSpawned || te > ex.pubExecuted {
		if err := p.det.Publish(int(ts-ex.pubSpawned), int(te-ex.pubExecuted)); err != nil {
			return err
		}
		ex.pubSpawned, ex.pubExecuted = ts, te
	}
	return nil
}

// adaptRefill computes the next ring-refill batch from the previous one
// and the executor idle iterations observed since the last refill, clamped
// to [min, max]. Any observed starvation doubles the batch — idle
// executors mean refills were not keeping up, so the next one should
// stock deeper; an idle-free interval decays the batch halfway back
// toward the classic fixed minimum, so a workload that stops bursting
// stops hoarding (surplus returns to the protocol queue where thieves
// can see it).
func adaptRefill(prev int, idleDelta uint64, min, max int) int {
	next := prev
	if idleDelta > 0 {
		next = prev * 2
	} else {
		next = min + (prev-min)/2
	}
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	return next
}

// fillLocalTier keeps the ring fed from the protocol queue: when the ring
// runs shallow (below one task per worker) the owner pops from the local
// portion up to the adaptive refill target. The target starts at the
// classic 2x-workers batch and tracks observed executor starvation
// (adaptRefill), so bursty workloads keep the ring warm while steady ones
// stay shallow — surplus work lives in the protocol queue where Release
// can expose it to remote thieves; deep local tiers hoard.
func (p *Pool) fillLocalTier() (int, error) {
	ex := p.exec
	w := len(ex.workers)
	if ex.dq.Len() >= w {
		return 0, nil
	}
	var idle uint64
	for _, ws := range ex.workers[1:] {
		idle += ws.idleIters.Load()
	}
	ex.refillTarget = adaptRefill(ex.refillTarget, idle-ex.refillIdleBase, 2*w, ex.dq.Cap())
	ex.refillIdleBase = idle
	if p.live != nil {
		p.live.refillTarget.Store(int64(ex.refillTarget))
	}
	moved := 0
	for ex.dq.Len() < ex.refillTarget {
		d, ok, err := p.q.Pop()
		if err != nil {
			return moved, err
		}
		if !ok {
			break
		}
		// The ring keeps the descriptor past the next Pop; Pop's payload
		// buffer does not.
		d.Payload = bytes.Clone(d.Payload)
		if !ex.dq.TryPush(d) {
			// Workers refilled the ring concurrently; put the task back.
			if err := p.push(d); err != nil {
				return moved, err
			}
			break
		}
		moved++
	}
	return moved, nil
}
