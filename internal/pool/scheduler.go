// Scheduler layer: the per-PE decision loop, decomposed into small
// explicit steps. Each step is one scheduling decision — make executor
// output visible, expose work, reclaim protocol space, drain the
// remote-spawn inbox, run a local task, pull shared work back, steal,
// probe termination — over the protocol layer (wsq.Queue) underneath.
// There is one loop, run by the owner worker at every worker count: the
// paper's one-goroutine PE is the PE with no executors, for which the
// steps that serve executors find nothing to do.
package pool

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
)

// JobResult summarizes one job's execution on this PE.
type JobResult struct {
	// Seq is the job's 1-based sequence number on this pool.
	Seq uint64
	// Stats is this PE's counter set scoped to the job: the delta of the
	// pool's cumulative counters across the job's barriers.
	Stats stats.PE
	// Elapsed is this PE's wall time between the job's barriers.
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

// RunJob runs one job epoch to global termination: it rearms the
// termination detector, opens with a barrier (which fences every PE's
// detector reset against the job's eventual verdict broadcast), processes
// tasks until the detector declares the global pool exhausted, and closes
// with a barrier. Every PE must call it collectively, with the job's
// root tasks seeded (Add/SpawnOn) beforehand. Whole-job timing covers
// the span between the barriers, matching the paper's whole-program
// timers; the returned stats are the job's deltas, so a long-lived fleet
// reports per-job figures while Stats stays cumulative.
func (p *Pool) RunJob() (JobResult, error) {
	p.jobSeq++
	p.prevProbes = 0
	prev := p.Stats()
	if err := p.det.StartJob(); err != nil {
		return JobResult{}, err
	}
	p.tr.Record(trace.JobStart, int64(p.jobSeq), 0)
	if err := p.ctx.Barrier(); err != nil {
		if !errors.Is(err, shmem.ErrPeerDead) {
			return JobResult{}, err
		}
		// A peer died before the job started. All collective allocation
		// happened in New; the barrier is only a timing fence, so the
		// survivors proceed straight into a degraded job.
	}
	start := time.Now()
	if err := p.run(); err != nil {
		return JobResult{}, err
	}
	p.elapsed = time.Since(start)
	res := JobResult{Seq: p.jobSeq, Elapsed: p.elapsed, Stats: p.Stats().Delta(prev)}
	p.tr.Record(trace.JobEnd, int64(p.jobSeq), int64(res.Stats.TasksExecuted))
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

// run is the owner worker's scheduler loop for one job. The step order —
// membership, executor output, release, periodic progress, inbox drain,
// run one local task, acquire, search, termination check — is the paper's
// single-threaded PE; executors, when the PE has any, run beside it for
// the length of the job and only ever touch the intra-PE tier.
func (p *Pool) run() (err error) {
	ex := p.exec
	owner := ex.workers[0]
	ex.stop.Store(false) // rearm after any previous job on a warm pool
	var wg sync.WaitGroup
	for _, ws := range ex.workers[1:] {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			p.executorLoop(ws)
		}(ws)
	}
	defer func() {
		ex.stop.Store(true)
		wg.Wait()
		if err == nil {
			err = ex.firstErr()
		}
		// Global termination implies quiescence, so no executor output can
		// have appeared after the final publish; verify the invariant held.
		if staged := ex.takeStaged(); err == nil && len(staged) != 0 {
			err = fmt.Errorf("pool: %d tasks staged after termination (accounting bug)", len(staged))
		}
	}()

	iter := 0
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
			p.ctx.Relax()
			continue
		}
		if err := p.stepPublish(p.push); err != nil {
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
		// idle processes continuously looking for work); Relax keeps
		// oversubscribed worlds live and is the sim's scheduling point.
		owner.idleIters.Add(1)
		p.ctx.Relax()
	}
}

// stepPublish makes executor output visible: take what executors staged,
// publish the counts that cover it, and only then hand each local task to
// keep (the protocol queue; a departing PE's forwarding) and send each
// remote one — the order that keeps the detector from ever missing
// outstanding work. It runs every iteration so remote probes see
// executors' progress; a PE without executors has nothing staged and
// nothing to publish.
func (p *Pool) stepPublish(keep func(task.Desc) error) error {
	staged := p.exec.takeStaged()
	if err := p.publishCounts(); err != nil {
		return err
	}
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
	due, err := p.q.ReleaseDue()
	if err != nil || !due {
		return err
	}
	t0 := time.Now()
	released, err := p.q.Release()
	if err != nil {
		return err
	}
	if released > 0 {
		p.lat.release.Record(p.cal.Since(t0))
		p.st.Releases++
		p.tr.Record(trace.Release, 0, int64(released))
		p.recordEpochFlip(int64(released))
		if p.live != nil {
			p.live.releases.Add(1)
		}
	}
	return nil
}

// stepProgress periodically reclaims queue space held by completed steals
// and refreshes the live queue-depth gauges.
func (p *Pool) stepProgress(iter int) error {
	if iter%64 != 0 {
		return nil
	}
	if err := p.q.Progress(); err != nil {
		return err
	}
	local, shared := int64(p.q.LocalCount()), int64(p.q.SharedAvail())
	if p.live != nil {
		p.live.qLocal.Store(local)
		p.live.qShared.Store(shared)
		if p.coreQ != nil {
			// Elastic mirror: this step runs on the owner goroutine, so
			// reading owner-side queue stats here is race-free.
			qs := p.coreQ.Stats()
			p.live.queueGrows.Store(qs.Grows)
			p.live.queueShrinks.Store(qs.Shrinks)
			p.live.tasksSpilled.Store(qs.Spilled)
			p.live.queueCap.Store(int64(qs.Capacity))
			p.live.spillDepth.Store(int64(qs.SpillDepth))
		}
	}
	// Journal the depth only when it moved: an idle PE polling Progress
	// must not flood its flight ring with identical samples.
	if local != p.flightQLocal || shared != p.flightQShared {
		p.flightQLocal, p.flightQShared = local, shared
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
	if err := p.det.NoteActivity(); err != nil {
		return false, err
	}
	p.st.RemoteSpawnsRecv += uint64(got)
	p.tr.Record(trace.InboxDrain, 0, int64(got))
	if p.live != nil {
		p.live.remoteRecv.Add(uint64(got))
	}
	return true, nil
}

// stepExecuteLocal runs one local task on the owner, reporting whether
// the step made progress. The paper's PE pops the newest task of its split
// queue (LIFO); a PE with executors serves them first — it tops the ring up
// from the split queue and takes its own task from the ring, the owner
// being a worker too.
func (p *Pool) stepExecuteLocal() (bool, error) {
	var (
		d     task.Desc
		ok    bool
		moved int
		err   error
	)
	executors := len(p.exec.workers) > 1
	if executors {
		// Does this PE have executors? Yes: local work reaches every
		// worker, the owner included, through the ring.
		moved, err = p.fillLocalTier()
		if err == nil {
			d, ok = p.exec.dq.TryPop()
		}
	} else {
		d, ok, err = p.q.Pop()
	}
	if err != nil || !ok {
		return moved > 0, err
	}
	if err := p.executeOwned(d); err != nil {
		return false, err
	}
	// The scheduling point after a task. A PE that is its own only worker
	// cedes the processor on the exec-sample beat — once in execSampleEvery
	// tasks, not per task: Gosched takes the Go scheduler's process-wide
	// lock, and busy PEs would contend on it at the task rate. A thief on an
	// oversubscribed host still gets the core within execSampleEvery task
	// bodies or the runtime's 10 ms preemption, whichever is sooner; the
	// sim's hand-back stays per task (Ctx.Yield). With executors the owner
	// is their feeder, and backing off per task is what keeps it from
	// competing with them for the ring (DESIGN §4.18).
	if executors {
		p.ctx.Relax()
	} else {
		p.ctx.Yield(p.exec.workers[0].executed.Load()%execSampleEvery == 0)
	}
	return true, nil
}

// stepAcquire pulls shared work back once the local portion is empty,
// reporting whether anything moved.
func (p *Pool) stepAcquire() (bool, error) {
	if p.q.LocalCount() != 0 {
		return false, nil // Acquire applies to an empty local portion only
	}
	t0 := time.Now()
	moved, err := p.q.Acquire()
	if err != nil || moved == 0 {
		return false, err
	}
	p.lat.acquire.Record(p.cal.Since(t0))
	p.st.Acquires++
	p.tr.Record(trace.Acquire, 0, int64(moved))
	p.recordEpochFlip(int64(moved))
	if p.live != nil {
		p.live.acquires.Add(1)
	}
	return true, nil
}

// stepCheckTermination runs one termination-detection probe, tracing
// summation waves and the final termination event.
func (p *Pool) stepCheckTermination() (bool, error) {
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
		p.tr.Record(trace.TermWave, int64(pr), flag)
	}
	if done {
		p.tr.Record(trace.Terminated, 0, 0)
		if p.live != nil {
			p.live.terminated.Store(1)
			if p.det.Degraded {
				p.live.degraded.Store(1)
				p.live.tasksLost.Store(p.det.Lost)
			}
		}
		if p.det.Degraded {
			// Degraded termination means work was written off with dead
			// PEs — exactly the post-mortem the journals exist for.
			_ = p.ctx.FlightDump("degraded termination")
		}
	}
	return done, nil
}
