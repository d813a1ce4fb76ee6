// Scheduler layer: the per-PE decision loop, decomposed into small
// explicit steps. Each step is one scheduling decision — serve the team,
// expose work, reclaim protocol space, drain the remote-spawn inbox, run a
// local task, pull shared work back (from the split queue, then from the
// intra-PE ring), steal, probe termination — over the protocol layer
// (wsq.Queue) underneath. A PE with local work runs its tasks back to back
// in a burst (stepExecuteLocal), a pass each, to the obs.SampleEvery beat:
// the other steps wait for the beat or for a pass that finds no local work.
// There is one loop, run by the owner worker at every worker count: the
// paper's one-goroutine PE is the PE with no executors, for which the steps
// that serve executors find nothing to do.
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
// fences every PE's detector reset against the job's verdict broadcast),
// processes tasks until the detector declares the global pool exhausted,
// and closes with a barrier. Every PE calls it collectively, with the job's
// roots seeded (Add/SpawnOn) beforehand; during the job the PE's owner work
// is this goroutine's alone (a concurrent Add, SpawnOn or RunJob panics).
// Whole-job timing covers the span between the barriers, as the paper's
// timers do; the returned stats are the job's counter deltas.
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
	degraded := p.ctx.Liveness().AnyDead()
	if !degraded {
		// A drain or join begun on this rank after its last membership
		// step ends with the job: at a fault-free verdict every queue is
		// empty, so the drain forwards nothing.
		if err := p.stepMembership(); err != nil {
			return JobResult{}, err
		}
	}
	p.elapsed = p.ctx.Now().Sub(start)
	res := JobResult{Seq: p.jobSeq, Elapsed: p.elapsed, Stats: p.counters().Delta(prev)}
	p.tr.Record(trace.JobEnd, int64(p.jobSeq), int64(res.Stats.TasksExecuted), 0)
	if degraded {
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
// membership, team, release, (on the beat or with no local work) progress
// and inbox drain, one local task, acquire, take from the ring, search,
// termination check — is the paper's single-threaded PE; executors, when
// the PE has any, run beside it on their private deques and the ring.
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

	iter, lastIdle, found := 0, 0, false
	var burst time.Time // the owner's open burst (clockBurst)
	wait := p.ctx.NewWait(0)
	for {
		iter++
		busy := found && iter%obs.SampleEvery != 0
		if !busy {
			if err := p.ctx.Err(); err != nil {
				return fmt.Errorf("pool: world failed: %w", err)
			}
			if err := ex.firstErr(); err != nil {
				return err
			}
		}
		if err := p.stepMembership(); err != nil {
			return err
		}
		if p.parked {
			p.clockBurst(owner, &burst, false)
			done, err := p.stepParked()
			if err != nil || done {
				return err
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
		handled, err := false, error(nil)
		if !busy {
			if err = p.stepProgress(iter); err == nil {
				handled, err = p.mbox.ownDrain()
			}
		}
		if !handled && err == nil {
			var passes int
			if passes, handled, err = p.stepExecuteLocal(iter, &burst); passes > 1 {
				iter, busy = iter+passes-1, true
			}
		}
		if !handled && err == nil && busy {
			// The local work ran out inside a burst: the pass runs again in
			// full under its own number, so the beat still counts passes.
			iter, found = iter-1, false
			continue
		}
		if !handled && err == nil {
			handled, err = p.stepAcquire()
		}
		if !handled && err == nil {
			handled, err = p.stepTakeShared()
		}
		if !handled && err == nil {
			handled, err = p.search()
		}
		if err != nil {
			return err
		}
		if found = handled; handled {
			continue
		}
		// Probe termination: only the global sums balance (a stolen task
		// runs on another rank than it was spawned on), and outstanding
		// work always keeps them apart, so probing is safe at any moment.
		done, err := p.stepCheckTermination()
		if err != nil || done {
			return err
		}
		// Idle PEs keep looking for work, as the paper's do; the wait keeps
		// oversubscribed worlds live and is the sim's scheduling point.
		owner.idleIters.Add(1)
		if lastIdle != iter-1 {
			wait.Reset()
		}
		lastIdle = iter
		wait.Poll()
	}
}

// stepTeam is what the owner does for the PE's other workers once a pass:
// deliver what they staged, and pay the ring what its private part owes it
// (surplus), from its newest end (the oldest are Release's, for other PEs).
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
// (§3.1: release is invoked when the runtime discovers the imbalance). It
// runs once per task on a busy PE and almost never moves anything:
// ReleaseDue is the one read of the PE's own stealval a task pays for.
func (p *Pool) stepRelease() error {
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
		end := p.ctx.Now()
		p.lat.release.Record(end.Sub(t0))
		p.bk.releases.Add(1)
		p.tr.Record(trace.Release, 0, int64(released), 0)
		p.recordEpochFlip(end, int64(released))
	}
	return nil
}

// stepProgress, on the beat, reclaims queue space held by completed steals,
// refills it from the owner's private deque, and refreshes what live readers
// see: the published counts (a busy PE's only publish between hand-offs,
// what a PE that dies is written off against) and the queue-depth gauges.
func (p *Pool) stepProgress(iter int) error {
	if iter%obs.SampleEvery != 0 {
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
	// Refresh the gauges, each only if it moved; journal the depth only as
	// the PE turns idle or runnable (a busy PE's moves nearly every beat).
	bk := &p.bk
	local, shared := int64(p.ownedCount()), int64(p.q.SharedAvail())
	wasIdle := bk.qLocal.Load()+bk.qShared.Load() == 0
	move(&bk.qLocal, local)
	move(&bk.qShared, shared)
	if wasIdle != (local+shared == 0) {
		p.ctx.FlightRecord(trace.QueueDepth, local, shared)
	}
	return nil
}

// stepDrainInbox moves remotely spawned tasks from the inbox into the
// local queue (already counted as spawned by their senders), reporting
// whether any arrived.
func (p *Pool) stepDrainInbox() (bool, error) {
	bulk := p.q.PushSlots // one copy a span, unless the private deque holds newer tasks
	if p.exec.workers[0].dq.n != 0 {
		bulk = nil
	}
	got, err := p.mbox.drain(p.push, bulk)
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

// stepExecuteLocal is the owner's burst: its newest private tasks, popped
// LIFO as the paper's PE pops them, run back to back, one a pass; it reports
// the passes taken and whether the last ran a task. A team of one has no one
// to serve between two tasks, so each later pass is the release check and a
// task, until the beat's pass (iter+passes) or a membership change; a larger
// team's burst is one task, as its ring wants serving after each.
func (p *Pool) stepExecuteLocal(iter int, burst *time.Time) (passes int, ran bool, err error) {
	owner, lv := p.exec.workers[0], p.ctx.Liveness()
	for passes = 1; ; passes++ {
		d, ok, err := p.popOwned()
		if err != nil {
			return passes, false, err
		}
		p.clockBurst(owner, burst, ok)
		if !ok {
			// Nothing to run: what the PE's tasks spawned elsewhere goes out
			// before it acquires, searches or probes (a batch sent home runs first).
			err := p.flushRemote()
			return passes, err == nil && p.ownedCount() > 0, err
		}
		if err := p.execute(owner, d); err != nil {
			return passes, false, err
		}
		// Once a peer is dead the leader calls the survivors quiescent when
		// two of its passes read the same counters (term.Detector.Check), so
		// a busy PE's move with every task. Fault-free, this is a load.
		if lv.AnyDead() {
			p.publishCounts()
		}
		p.yieldAfterTask(owner, burst)
		if len(p.exec.workers) > 1 || (iter+passes)%obs.SampleEvery == 0 || lv.MemberEpoch() != p.memberEpoch {
			return passes, true, nil
		}
		if err := p.stepRelease(); err != nil {
			return passes, false, err
		}
	}
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
	end := p.ctx.Now()
	p.lat.acquire.Record(end.Sub(t0))
	p.bk.acquires.Add(1)
	p.tr.Record(trace.Acquire, 0, int64(moved), 0)
	p.recordEpochFlip(end, int64(moved))
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
