// Scheduler layer: the per-PE decision loop, decomposed into small
// explicit steps. Each step is one scheduling decision — serve the team,
// expose work, reclaim protocol space, drain the remote-spawn inbox, run a
// local task, pull shared work back (from the split queue, then from the
// intra-PE ring), steal, probe termination — over the protocol layer
// (wsq.Queue) underneath. There is one loop, run by the owner worker at
// every worker count: the paper's one-goroutine PE is the PE with no
// executors, for which the steps that serve executors find nothing to do.
package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"sws/internal/obs"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// JobResult summarizes one job's execution on this PE.
type JobResult struct {
	// Seq is the job's 1-based sequence number on this pool.
	Seq uint64
	// Stats is this PE's counter set scoped to the job: the delta of the
	// pool's cumulative counters across the job's barriers. It holds
	// counters only, so Lat is nil: the latency histograms are
	// lifetime-cumulative and read through Pool.Stats.
	Stats stats.PE
	// Elapsed is this PE's time on Ctx.Now between the job's barriers.
	Elapsed time.Duration
}

// Run processes tasks until global termination. It is RunJob without the
// per-job result — kept for the common one-job-per-pool call sites. A
// warm pool may call it (or RunJob) any number of times; each call is one
// job epoch.
func (p *Pool) Run() error {
	_, err := p.RunJob()
	return err
}

// RunJob runs one job epoch to global termination: it publishes the seeds'
// counts, rearms the termination detector, opens with a barrier (which
// fences every PE's detector reset against the job's eventual verdict
// broadcast), processes tasks until the detector declares the global pool
// exhausted, and closes with a barrier. Every PE must call it collectively,
// with the job's root tasks seeded (Add/SpawnOn) beforehand; for the length
// of the job the PE's owner work is this goroutine's alone (a concurrent
// Add, SpawnOn or RunJob panics). Whole-job timing covers
// the span between the barriers, matching the paper's whole-program
// timers; the returned stats are the job's counter deltas, so a
// long-lived fleet reports per-job figures while Stats stays cumulative.
func (p *Pool) RunJob() (JobResult, error) {
	p.guard.Enter(wsq.OwnerRun)
	defer p.guard.Exit()
	p.jobSeq++
	p.prevProbes = 0
	p.bk.terminated.Store(0) // the gauge is this job's, not the last one's
	// The seeds are counted in the owner's plain fields only. Published
	// before the barrier, they are in the ledger before any PE can probe.
	p.publishCounts()
	prev := p.counters()
	if err := p.det.StartJob(); err != nil {
		return JobResult{}, err
	}
	p.tr.Record(trace.JobStart, int64(p.jobSeq), 0, 0)
	if err := p.ctx.Barrier(); err != nil {
		if !errors.Is(err, shmem.ErrPeerDead) {
			return JobResult{}, err
		}
		// A peer died before the job started. All collective allocation
		// happened in New; the barrier is only a timing fence, so the
		// survivors proceed straight into a degraded job.
	}
	start := p.ctx.Now()
	if err := p.run(); err != nil {
		return JobResult{}, err
	}
	p.elapsed = p.ctx.Now().Sub(start)
	res := JobResult{Seq: p.jobSeq, Elapsed: p.elapsed, Stats: p.counters().Delta(prev)}
	p.tr.Record(trace.JobEnd, int64(p.jobSeq), int64(res.Stats.TasksExecuted), 0)
	if lv := p.ctx.Liveness(); lv != nil && lv.AnyDead() {
		// The closing barrier can never complete over dead membership;
		// the degraded termination broadcast already synchronized the
		// survivors' decision to stop.
		return res, nil
	}
	if err := p.ctx.Barrier(); err != nil && !errors.Is(err, shmem.ErrPeerDead) {
		// A death declared while waiting here (kill racing the finish)
		// poisons the barrier; the job's work is already complete, so a
		// dead-peer unwind is not a failure.
		return res, err
	}
	return res, nil
}

// ErrStranded reports tasks still staged or in a worker's private deque
// after global termination: the ledger balanced without them.
var ErrStranded = errors.New("pool: tasks stranded after termination (accounting bug)")

// run is the owner worker's scheduler loop for one job. The step order —
// membership, team, release, periodic progress, inbox drain, run one local
// task, acquire, take from the ring, search, termination check — is the
// paper's single-threaded PE; executors, when the PE has any, run beside it
// for the length of the job on their private deques and the intra-PE ring.
func (p *Pool) run() (err error) {
	ex := p.exec
	owner := ex.workers[0]
	ex.stop.Store(false) // rearm after any previous job on a warm pool
	var wg sync.WaitGroup
	for _, ws := range ex.workers[1:] {
		wg.Add(1)
		shmem.Host(1) // an executor competes for a core like a PE (TaskCtx.Compute)
		go func(ws *workerState) {
			defer wg.Done()
			defer shmem.Host(-1)
			p.executorLoop(ws)
		}(ws)
	}
	defer func() {
		ex.stop.Store(true)
		wg.Wait()
		if err == nil {
			err = ex.firstErr()
		}
		// Global termination implies quiescence: nothing staged, nothing held.
		held := 0
		for _, ws := range ex.workers {
			held += ws.dq.n
		}
		if staged := len(ex.takeStaged()); err == nil && staged+held+p.mbox.outN != 0 {
			err = fmt.Errorf("%w: %d staged, %d in workers' private deques, %d in the outbox",
				ErrStranded, staged, held, p.mbox.outN)
		}
	}()

	iter, lastIdle := 0, 0
	wait := p.ctx.NewWait(0)
	for {
		iter++
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("pool: world failed: %w", err)
		}
		if err := ex.firstErr(); err != nil {
			return err
		}
		if err := p.stepMembership(); err != nil {
			return err
		}
		if p.parked {
			done, err := p.stepParked()
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			owner.idleIters.Add(1)
			wait.Poll()
			continue
		}
		if err := p.stepTeam(); err != nil {
			return err
		}
		if err := p.stepRelease(); err != nil {
			return err
		}
		if err := p.stepProgress(iter); err != nil {
			return err
		}
		handled, err := p.stepDrainInbox()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		handled, err = p.stepExecuteLocal()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		handled, err = p.stepAcquire()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		handled, err = p.stepTakeShared()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		found, err := p.search()
		if err != nil {
			return err
		}
		if found {
			continue
		}
		// Probe termination. Per-PE counts do not balance individually
		// (stolen tasks execute on a different rank than they spawned on);
		// only the global sum does, and the publish ordering makes probing
		// safe at any moment — outstanding work always keeps the global
		// sums apart.
		done, err := p.stepCheckTermination()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Idle PEs keep searching aggressively (the paper's model has
		// idle processes continuously looking for work); the wait keeps
		// oversubscribed worlds live and is the sim's scheduling point.
		owner.idleIters.Add(1)
		if lastIdle != iter-1 {
			wait.Reset()
		}
		lastIdle = iter
		wait.Poll()
	}
}

// stepTeam is what the owner does for the PE's other workers once per
// iteration: deliver what they staged, and pay the ring what its own private
// part owes it (surplus). It shares its newest tasks, the end popOwned
// serves; the oldest are Release's, for other PEs. The team of one has no
// one to serve.
func (p *Pool) stepTeam() error {
	ex := p.exec
	if len(ex.workers) == 1 {
		return nil
	}
	if err := p.deliverStaged(p.push); err != nil {
		return err
	}
	for k := ex.surplus(p.ownedCount()); k > 0; k-- {
		d, ok, err := p.popOwned()
		if err != nil || !ok {
			return err
		}
		d.Payload = bytes.Clone(d.Payload) // Pop's buffer is reused; the ring keeps d
		if !ex.ring.TryPush(d) {
			return p.push(d) // another worker filled the ring first
		}
	}
	return nil
}

// deliverStaged takes what executors staged, publishes the counts that
// cover it, and only then sends each task for another PE and hands each
// handed-over local one to keep (the protocol queue; a departing PE's
// forwarding) — the order that keeps the detector from ever missing
// outstanding work. With nothing staged it is one atomic load.
func (p *Pool) deliverStaged(keep func(task.Desc) error) error {
	staged := p.exec.takeStaged()
	if len(staged) == 0 {
		return nil
	}
	p.publishCounts()
	for _, s := range staged {
		var err error
		if s.pe == p.ctx.Rank() {
			err = keep(s.d)
		} else {
			err = p.sendRemote(s.pe, s.d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stepRelease exposes work to thieves when the shared portion has run dry
// (§3.1: release is invoked when the runtime discovers the imbalance).
func (p *Pool) stepRelease() error {
	// This step runs once per task on a busy PE, and almost never moves
	// anything: ReleaseDue is the one read of the PE's own stealval a busy
	// iteration makes, and the clock and Release follow only when it says a
	// release is due.
	if !p.q.ReleaseDue() {
		return nil
	}
	// The block may hold tasks counted only in the owner's plain fields; a
	// thief that runs one publishes its execution, so their spawns go first.
	p.publishCounts()
	t0 := p.ctx.Now()
	released, err := p.q.Release()
	if err != nil {
		return err
	}
	if released > 0 {
		p.lat.release.Record(p.ctx.Now().Sub(t0))
		p.bk.releases.Add(1)
		p.tr.Record(trace.Release, 0, int64(released), 0)
		p.recordEpochFlip(int64(released))
	}
	return nil
}

// stepProgress periodically reclaims queue space held by completed steals,
// refills the split queue from the owner's private deque into that space,
// and refreshes what live readers see: the published counts (a busy PE's
// only publish between hand-offs; the leader's last read of them is what a
// PE that dies is written off against) and the queue-depth gauges.
func (p *Pool) stepProgress(iter int) error {
	if iter%64 != 0 {
		return nil
	}
	p.publishCounts()
	if err := p.flushRemote(); err != nil {
		return err
	}
	if err := p.q.Progress(); err != nil {
		return err
	}
	if err := p.refill(); err != nil {
		return err
	}
	// Refresh the gauges, each only if it moved, and journal the depth on
	// the same condition: an idle PE polling Progress must neither write
	// its book nor flood its ring with identical samples.
	bk := &p.bk
	local, shared := int64(p.ownedCount()), int64(p.q.SharedAvail())
	if moved := move(&bk.qLocal, local); move(&bk.qShared, shared) || moved {
		p.ctx.FlightRecord(trace.QueueDepth, local, shared)
	}
	return nil
}

// stepDrainInbox moves remotely spawned tasks from the inbox into the
// local queue (already counted as spawned by their senders), reporting
// whether any arrived.
func (p *Pool) stepDrainInbox() (bool, error) {
	got, err := p.mbox.drain(p.push)
	if err != nil {
		return false, err
	}
	if got == 0 {
		return false, nil
	}
	p.det.NoteActivity()
	p.bk.remoteRecv.Add(uint64(got))
	p.tr.Record(trace.InboxDrain, 0, int64(got), 0)
	return true, nil
}

// stepExecuteLocal runs the newest task of the owner's private part —
// popped LIFO as the paper's PE does — reporting whether there was one.
func (p *Pool) stepExecuteLocal() (bool, error) {
	d, ok, err := p.popOwned()
	if err != nil {
		return false, err
	}
	if !ok {
		// Nothing to run: what the PE's tasks spawned elsewhere goes out
		// before it acquires, searches or probes.
		return false, p.flushRemote()
	}
	if err := p.execute(p.exec.workers[0], d); err != nil {
		return false, err
	}
	// Once a peer is dead the leader calls the survivors quiescent when two
	// of its passes read the same counters (term.Detector.Check), so a busy
	// PE's must move with every task it runs, not only on the stepProgress
	// beat. Fault-free, the check is two loads.
	if lv := p.ctx.Liveness(); lv != nil && lv.AnyDead() {
		p.publishCounts()
	}
	// The scheduling point after a task: a busy worker cedes the processor
	// on the exec-sample beat — not per task, Gosched takes the Go
	// scheduler's process-wide lock and busy workers would contend on it at
	// the task rate. A thief on an oversubscribed host still gets the core
	// within obs.SampleEvery task bodies or the runtime's 10 ms preemption;
	// the sim's hand-back stays per task (Ctx.Yield).
	p.ctx.Yield(p.exec.workers[0].nExecuted%obs.SampleEvery == 0)
	return true, nil
}

// stepAcquire pulls shared work back once the local portion is empty,
// reporting whether anything moved.
func (p *Pool) stepAcquire() (bool, error) {
	if p.q.LocalCount() != 0 {
		return false, nil // Acquire applies to an empty local portion only
	}
	t0 := p.ctx.Now()
	moved, err := p.q.Acquire()
	if err != nil || moved == 0 {
		return false, err
	}
	p.lat.acquire.Record(p.ctx.Now().Sub(t0))
	p.bk.acquires.Add(1)
	p.tr.Record(trace.Acquire, 0, int64(moved), 0)
	p.recordEpochFlip(int64(moved))
	return true, nil
}

// stepTakeShared is stepAcquire one level in: with its local and shared
// portions both empty the owner takes a task from the ring into its local
// portion, like any worker whose private pop came up empty. It is also how
// executor surplus reaches other PEs — the task and its children sit in the
// split queue, where Release exposes them — so the counts go first: the
// task's spawn may still be in an executor's unpublished counter.
func (p *Pool) stepTakeShared() (bool, error) {
	d, ok := p.exec.ring.TryPop()
	if !ok {
		return false, nil
	}
	p.exec.workers[0].fromRing++
	p.publishCounts()
	return true, p.push(d)
}

// stepCheckTermination runs one termination-detection probe, tracing
// summation waves and the final termination event. A PE with nothing left
// to do is the one whose ledger must be exact, so its counts go first.
func (p *Pool) stepCheckTermination() (bool, error) {
	if err := p.flushRemote(); err != nil {
		return false, err
	}
	p.publishCounts()
	done, err := p.det.Check()
	if err != nil {
		return false, err
	}
	if pr := p.det.Probes; pr != p.prevProbes {
		p.prevProbes = pr
		var flag int64
		if done {
			flag = 1
		}
		p.tr.Record(trace.TermWave, int64(pr), flag, 0)
	}
	if done {
		p.tr.Record(trace.Terminated, 0, 0, 0)
		p.bk.terminated.Store(1)
		if p.det.Degraded {
			p.bk.degraded.Store(1)
			p.bk.tasksLost.Store(p.det.Lost)
			// Degraded termination means work was written off with dead
			// PEs — exactly the post-mortem the journals exist for.
			_ = p.ctx.FlightDump("degraded termination")
		}
	}
	return done, nil
}
