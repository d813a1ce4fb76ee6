package pool

import (
	"strconv"
	"sync/atomic"

	"sws/internal/obs"
)

// book is the PE's one set of counters: each is written once, where the
// event happens, by the owner goroutine (so an add never contends), and
// read by Stats between jobs and by the metrics endpoint at any time —
// atomics, because a scrape runs beside the scheduler loop. Nothing here is
// written per task: task counts live in the workers' own atomics, the
// gauges are refreshed on the stepProgress beat, only when they moved, and
// tasksSpilled moves only while the split queue is full.
type book struct {
	stealsOK, stealsEmpty, stealsDisabled, tasksStolen atomic.Uint64
	stealTime, searchTime                              atomic.Int64 // ns
	releases, acquires                                 atomic.Uint64
	remoteSent, remoteRecv                             atomic.Uint64
	tasksSpilled                                       atomic.Uint64

	// Failure handling and elastic membership (zero on fault-free, fixed-
	// membership runs). quarantined is the current victim count.
	stealTransportErrs, stealsQuarantined     atomic.Uint64
	tasksForwarded, memberDrains, memberJoins atomic.Uint64
	quarantined, degraded, terminated         atomic.Int64
	tasksLost                                 atomic.Uint64

	// The queue's own figures as of the last stepProgress beat (the queue's
	// fields are the owner's plain memory), and the epoch at its last flip.
	qLocal, qShared, epoch atomic.Int64
}

// move stores v into a gauge cell if it differs, reporting whether it did:
// a refresh that changes nothing writes nothing.
func move(cell *atomic.Int64, v int64) bool {
	if cell.Load() == v {
		return false
	}
	cell.Store(v)
	return true
}

// The families a pool exports, per PE.
var (
	mWorkerExecuted = obs.NewCounter("sws_pool_worker_tasks_executed_total", "tasks", "pe, protocol, worker",
		"Tasks executed per worker (worker 0 is the owner, present on every PE); sums to sws_pool_tasks_executed_total.")
	mWorkerSpawned = obs.NewCounter("sws_pool_worker_tasks_spawned_total", "tasks", "pe, protocol, worker",
		"Tasks spawned per worker (seeds and a departing PE's locally run inventory are worker 0's); sums to sws_pool_tasks_spawned_total.")
	mWorkerIdle = obs.NewCounter("sws_pool_worker_idle_iterations_total", "iterations", "pe, protocol, worker",
		"Loop passes that found nothing to run, per worker: scheduler iterations for worker 0 (the owner, present on every PE), empty ring polls for executors.")
	mExecuted = obs.NewCounter("sws_pool_tasks_executed_total", "tasks", "pe, protocol",
		"Tasks executed by this PE.")
	mSpawned = obs.NewCounter("sws_pool_tasks_spawned_total", "tasks", "pe, protocol",
		"Tasks spawned by this PE.")
	mSteals = obs.NewCounter("sws_pool_steals_total", "attempts", "pe, protocol, outcome",
		"Steal attempts by outcome (ok, empty, disabled).")
	mStolen = obs.NewCounter("sws_pool_tasks_stolen_total", "tasks", "pe, protocol",
		"Tasks obtained by stealing.")
	mReleases = obs.NewCounter("sws_pool_releases_total", "transfers", "pe, protocol",
		"Local->shared queue transfers.")
	mAcquires = obs.NewCounter("sws_pool_acquires_total", "transfers", "pe, protocol",
		"Shared->local queue transfers.")
	mRemoteSpawns = obs.NewCounter("sws_pool_remote_spawns_total", "tasks", "pe, protocol, dir",
		"Tasks pushed into / drained from remote-spawn mailboxes.")
	mQueueDepth = obs.NewGauge("sws_pool_queue_depth_tasks", "tasks", "pe, protocol, portion",
		"Queue depth by portion (refreshed periodically).")
	mSpilled = obs.NewCounter("sws_pool_queue_spilled_tasks_total", "tasks", "pe, protocol",
		"Spawns that found the split queue full and went to the owner's private deque.")
	mEpoch = obs.NewGauge("sws_pool_epoch", "dimensionless (index)", "pe, protocol",
		"Completion-epoch number (SWS protocols).")
	mTerminated = obs.NewGauge("sws_pool_terminated", "dimensionless (bool)", "pe, protocol",
		"1 once this PE observed the current job's global termination.")
	mTransportErrs = obs.NewCounter("sws_pool_steal_transport_errors_total", "attempts", "pe, protocol",
		"Steal attempts absorbed as transport failures (victim quarantined).")
	mQuarantinedSteals = obs.NewCounter("sws_pool_steals_quarantined_total", "attempts", "pe, protocol",
		"Steal attempts skipped because the victim was quarantined.")
	mQuarantined = obs.NewGauge("sws_pool_quarantined_victims", "victims", "pe, protocol",
		"Victims currently quarantined by this PE.")
	mDegraded = obs.NewGauge("sws_pool_degraded", "dimensionless (bool)", "pe, protocol",
		"1 once this PE's run degraded to partial-membership termination.")
	mLost = obs.NewCounter("sws_pool_tasks_lost_total", "tasks", "pe, protocol",
		"Ledger estimate of tasks lost to dead PEs (degraded termination).")
	mPeerState = obs.NewGauge("sws_liveness_peer_state", "dimensionless (enum)", "pe, peer",
		"Failure-detector state per peer (0=alive, 1=suspect, 2=dead, 3=joining, 4=draining, 5=parked).")
	mOpLatency = obs.NewQuantiles("sws_pool_op_latency_seconds", "pe, protocol, op",
		"Scheduling-op latency quantiles (p50/p95/p99). op=exec holds the task bodies the exec clock timed: one in 64 per worker, every one with a trace buffer attached.",
		"Scheduling-op latency sample count (op=exec: timed bodies, not tasks executed).")
)

// metricsSource returns the per-PE emitter registered with
// Config.Metrics. Everything it reads is an atomic or a Hist snapshot,
// so scrapes are safe at any point during the run.
func (p *Pool) metricsSource() obs.SourceFunc {
	pe := obs.L("pe", strconv.Itoa(p.ctx.Rank()))
	proto := obs.L("protocol", p.cfg.Protocol.String())
	bk := &p.bk
	return func(e *obs.Emitter) {
		// Task counts come straight from the workers' own atomics: the PE
		// totals and the per-worker rows.
		var executed, spawned uint64
		for _, ws := range p.exec.workers {
			wl := obs.L("worker", strconv.Itoa(ws.id))
			exe, sp := ws.executed.Load(), ws.spawned.Load()
			executed += exe
			spawned += sp
			e.Counter(mWorkerExecuted, float64(exe), pe, proto, wl)
			e.Counter(mWorkerSpawned, float64(sp), pe, proto, wl)
			e.Counter(mWorkerIdle, float64(ws.idleIters.Load()), pe, proto, wl)
		}
		e.Counter(mExecuted, float64(executed), pe, proto)
		e.Counter(mSpawned, float64(spawned), pe, proto)
		e.Counter(mSteals, float64(bk.stealsOK.Load()), pe, proto, obs.L("outcome", "ok"))
		e.Counter(mSteals, float64(bk.stealsEmpty.Load()), pe, proto, obs.L("outcome", "empty"))
		e.Counter(mSteals, float64(bk.stealsDisabled.Load()), pe, proto, obs.L("outcome", "disabled"))
		e.Counter(mStolen, float64(bk.tasksStolen.Load()), pe, proto)
		e.Counter(mReleases, float64(bk.releases.Load()), pe, proto)
		e.Counter(mAcquires, float64(bk.acquires.Load()), pe, proto)
		e.Counter(mRemoteSpawns, float64(bk.remoteSent.Load()), pe, proto, obs.L("dir", "sent"))
		e.Counter(mRemoteSpawns, float64(bk.remoteRecv.Load()), pe, proto, obs.L("dir", "recv"))
		e.Gauge(mQueueDepth, float64(bk.qLocal.Load()), pe, proto, obs.L("portion", "local"))
		e.Gauge(mQueueDepth, float64(bk.qShared.Load()), pe, proto, obs.L("portion", "shared"))
		e.Counter(mSpilled, float64(bk.tasksSpilled.Load()), pe, proto)
		e.Gauge(mEpoch, float64(bk.epoch.Load()), pe, proto)
		e.Gauge(mTerminated, float64(bk.terminated.Load()), pe, proto)
		e.Counter(mTransportErrs, float64(bk.stealTransportErrs.Load()), pe, proto)
		e.Counter(mQuarantinedSteals, float64(bk.stealsQuarantined.Load()), pe, proto)
		e.Gauge(mQuarantined, float64(bk.quarantined.Load()), pe, proto)
		e.Gauge(mDegraded, float64(bk.degraded.Load()), pe, proto)
		e.Counter(mLost, float64(bk.tasksLost.Load()), pe, proto)

		if live := p.ctx.Liveness(); live != nil {
			for r := 0; r < p.ctx.NumPEs(); r++ {
				e.Gauge(mPeerState, float64(live.State(r)), pe, obs.L("peer", strconv.Itoa(r)))
			}
		}

		for op, hist := range p.lat.byName() {
			if op != "drain" { // Stats only: the world's sws_membership_drain_seconds times a departure
				e.Quantiles(mOpLatency, hist.Snapshot(), pe, proto, obs.L("op", op))
			}
		}
		p.ctx.Counters().Emit(e, pe)
	}
}
