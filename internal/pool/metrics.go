package pool

import (
	"strconv"
	"strings"
	"sync/atomic"

	"sws/internal/obs"
	"sws/internal/shmem"
)

// liveView mirrors the pool's hot-path counters into atomics so the
// metrics endpoint can read them while the PE goroutine is running. The
// canonical stats.PE counters stay plain (single-writer, read post-run);
// the mirror exists so live scrapes never race with the scheduler loop.
type liveView struct {
	stealsOK, stealsEmpty, stealsDisabled, tasksStolen atomic.Uint64
	releases, acquires                                 atomic.Uint64
	remoteSent, remoteRecv                             atomic.Uint64

	// Gauges refreshed periodically by the scheduler loop.
	qLocal, qShared, epoch atomic.Int64
	terminated             atomic.Int64

	// Elastic-queue mirror (stays zero for fixed-capacity queues except
	// queueCap, which reports the ring capacity on any SWS queue).
	queueGrows, queueShrinks, tasksSpilled atomic.Uint64
	queueCap, spillDepth                   atomic.Int64

	// Failure-handling counters (stay zero on fault-free runs).
	stealTransportErrs, stealsQuarantined atomic.Uint64
	quarantined                           atomic.Int64 // current victim count
	degraded                              atomic.Int64
	tasksLost                             atomic.Uint64
}

// metricsSource returns the per-PE emitter registered with
// Config.Metrics. Everything it reads is an atomic or a Hist snapshot,
// so scrapes are safe at any point during the run.
func (p *Pool) metricsSource() obs.SourceFunc {
	pe := obs.L("pe", strconv.Itoa(p.ctx.Rank()))
	proto := obs.L("protocol", p.cfg.Protocol.String())
	lv := p.live
	return func(e *obs.Emitter) {
		// Task counts come straight from the workers' own atomics (always
		// safe to scrape mid-run): the PE totals and the per-worker rows.
		var executed, spawned uint64
		for _, ws := range p.exec.workers {
			wl := obs.L("worker", strconv.Itoa(ws.id))
			exe, sp := ws.executed.Load(), ws.spawned.Load()
			executed += exe
			spawned += sp
			e.Counter("sws_pool_worker_tasks_executed_total", "Tasks executed per worker.",
				float64(exe), pe, proto, wl)
			e.Counter("sws_pool_worker_tasks_spawned_total", "Tasks spawned per worker.",
				float64(sp), pe, proto, wl)
			e.Counter("sws_pool_worker_idle_iterations_total", "Loop passes that found nothing to run, per worker.",
				float64(ws.idleIters.Load()), pe, proto, wl)
		}
		e.Counter("sws_pool_tasks_executed_total", "Tasks executed by this PE.",
			float64(executed), pe, proto)
		e.Counter("sws_pool_tasks_spawned_total", "Tasks spawned by this PE.",
			float64(spawned), pe, proto)
		for _, o := range []struct {
			name string
			v    uint64
		}{
			{"ok", lv.stealsOK.Load()},
			{"empty", lv.stealsEmpty.Load()},
			{"disabled", lv.stealsDisabled.Load()},
		} {
			e.Counter("sws_pool_steals_total", "Steal attempts by outcome.",
				float64(o.v), pe, proto, obs.L("outcome", o.name))
		}
		e.Counter("sws_pool_tasks_stolen_total", "Tasks obtained by stealing.",
			float64(lv.tasksStolen.Load()), pe, proto)
		e.Counter("sws_pool_releases_total", "Local->shared queue transfers.",
			float64(lv.releases.Load()), pe, proto)
		e.Counter("sws_pool_acquires_total", "Shared->local queue transfers.",
			float64(lv.acquires.Load()), pe, proto)
		e.Counter("sws_pool_remote_spawns_total", "Remote spawns sent.",
			float64(lv.remoteSent.Load()), pe, proto, obs.L("dir", "sent"))
		e.Counter("sws_pool_remote_spawns_total", "Remote spawns received.",
			float64(lv.remoteRecv.Load()), pe, proto, obs.L("dir", "recv"))
		e.Gauge("sws_pool_queue_depth_tasks", "Queue depth by portion (refreshed periodically).",
			float64(lv.qLocal.Load()), pe, proto, obs.L("portion", "local"))
		e.Gauge("sws_pool_queue_depth_tasks", "Queue depth by portion (refreshed periodically).",
			float64(lv.qShared.Load()), pe, proto, obs.L("portion", "shared"))
		e.Counter("sws_pool_queue_grows_total", "Elastic-queue reseats into a larger region.",
			float64(lv.queueGrows.Load()), pe, proto)
		e.Counter("sws_pool_queue_shrinks_total", "Elastic-queue reseats into a smaller region.",
			float64(lv.queueShrinks.Load()), pe, proto)
		e.Counter("sws_pool_queue_spilled_tasks_total", "Tasks spilled past the largest ring region into the local arena.",
			float64(lv.tasksSpilled.Load()), pe, proto)
		e.Gauge("sws_pool_queue_capacity_tasks", "Current ring capacity (refreshed periodically; SWS protocols).",
			float64(lv.queueCap.Load()), pe, proto)
		e.Gauge("sws_pool_queue_spill_depth_tasks", "Tasks currently parked in the spill arena (refreshed periodically).",
			float64(lv.spillDepth.Load()), pe, proto)
		e.Gauge("sws_pool_epoch", "Completion-epoch number (SWS protocols).",
			float64(lv.epoch.Load()), pe, proto)
		e.Gauge("sws_pool_terminated", "1 once this PE observed global termination.",
			float64(lv.terminated.Load()), pe, proto)
		e.Counter("sws_pool_steal_transport_errors_total",
			"Steal attempts absorbed as transport failures (victim quarantined).",
			float64(lv.stealTransportErrs.Load()), pe, proto)
		e.Counter("sws_pool_steals_quarantined_total",
			"Steal attempts skipped because the victim was quarantined.",
			float64(lv.stealsQuarantined.Load()), pe, proto)
		e.Gauge("sws_pool_quarantined_victims",
			"Victims currently quarantined by this PE.",
			float64(lv.quarantined.Load()), pe, proto)
		e.Gauge("sws_pool_degraded",
			"1 once this PE's run degraded to partial-membership termination.",
			float64(lv.degraded.Load()), pe, proto)
		e.Counter("sws_pool_tasks_lost_total",
			"Ledger estimate of tasks lost to dead PEs (degraded termination).",
			float64(lv.tasksLost.Load()), pe, proto)

		// Failure-detector view of every peer (0 alive, 1 suspect, 2 dead).
		if live := p.ctx.Liveness(); live != nil {
			for r := 0; r < p.ctx.NumPEs(); r++ {
				e.Gauge("sws_liveness_peer_state",
					"Failure-detector state per peer (0=alive, 1=suspect, 2=dead).",
					float64(live.State(r)), pe, obs.L("peer", strconv.Itoa(r)))
			}
		}

		for _, h := range []struct {
			op   string
			hist *obs.Hist
		}{
			{"exec", &p.lat.exec},
			{"steal", &p.lat.steal},
			{"search", &p.lat.search},
			{"acquire", &p.lat.acquire},
			{"release", &p.lat.release},
			{"push-wait", &p.lat.pushWait},
		} {
			e.Quantiles("sws_pool_op_latency_seconds", "Scheduling-op latency quantiles.",
				h.hist.Snapshot(), pe, proto, obs.L("op", h.op))
		}
		if p.coreQ != nil {
			// Reseat latency lives in the core queue's own histogram.
			e.Quantiles("sws_pool_op_latency_seconds", "Scheduling-op latency quantiles.",
				p.coreQ.GrowLat(), pe, proto, obs.L("op", "grow"))
		}

		// Shmem-level communication counters and per-op latency.
		cs := p.ctx.Counters()
		snap := cs.Snapshot()
		for _, op := range shmem.Ops() {
			if n := snap.Of(op); n > 0 {
				e.Counter("sws_shmem_remote_ops_total", "Remote one-sided operations by kind.",
					float64(n), pe, obs.L("op", op.String()))
			}
		}
		e.Counter("sws_shmem_local_ops_total", "Self-targeted one-sided operations.",
			float64(snap.Local), pe)
		e.Counter("sws_shmem_bytes_total", "Payload bytes moved by puts.",
			float64(snap.BytesPut), pe, obs.L("dir", "put"))
		e.Counter("sws_shmem_bytes_total", "Payload bytes moved by gets.",
			float64(snap.BytesGot), pe, obs.L("dir", "got"))
		for key, s := range cs.LatencySnapshots() {
			op, target, _ := strings.Cut(key, "/")
			e.Quantiles("sws_shmem_op_latency_seconds", "One-sided op latency quantiles.",
				s, pe, obs.L("op", op), obs.L("target", target))
		}
	}
}
