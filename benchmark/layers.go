package main

import "slices"

// runLayerMetrics derives the "run" rows of the per-layer list from the
// public statistics a traced window accumulated. Ratios carry their base
// in the name: per task, per thousand tasks, a share of busy time (pool.*),
// a share of the clients' summed submit-to-terminal latency (serve.*), or
// a share of the paced generator's inter-arrival interval (loadgen.*).
// tailPct is the workload's tail percentile.
func runLayerMetrics(a *layerAcc, tailPct float64) map[string]float64 {
	m := make(map[string]float64)
	pe := a.pe
	tasks := float64(pe.TasksExecuted)
	if tasks == 0 || a.busy <= 0 {
		return m
	}
	busy := float64(a.busy)

	m["shmem.blocking_ops_per_task"] = float64(a.comm.Blocking()) / tasks
	m["shmem.nbi_ops_per_task"] = float64(a.comm.NonBlocking()) / tasks

	exec, steal, search := float64(pe.ExecTime)/busy, float64(pe.StealTime)/busy, float64(pe.SearchTime)/busy
	m["pool.exec_frac"], m["pool.steal_frac"], m["pool.search_frac"] = exec, steal, search
	m["pool.unattributed_frac"] = 1 - exec - steal - search
	if pe.StealsAttempted > 0 {
		m["pool.steal_success_ratio"] = float64(pe.StealsSuccessful) / float64(pe.StealsAttempted)
	}
	m["pool.tasks_stolen_frac"] = float64(pe.TasksStolen) / tasks
	m["pool.steals_per_ktask"] = 1000 * float64(pe.StealsSuccessful) / tasks
	m["pool.acquires_per_ktask"] = 1000 * float64(pe.Acquires) / tasks
	m["pool.releases_per_ktask"] = 1000 * float64(pe.Releases) / tasks
	m["pool.idle_iters_per_task"] = float64(pe.IdleIters) / tasks
	units := make([]uint64, 0, len(a.unitTasks))
	for _, n := range a.unitTasks {
		units = append(units, n)
	}
	if hi := slices.Max(units); hi > 0 {
		m["pool.worker_balance"] = float64(slices.Min(units)) / float64(hi)
	}
	m["pool.remote_spawns_per_task"] = float64(pe.RemoteSpawnsSent) / tasks

	run := sortedCopy(a.runMS)
	m["pool.job_run_p50_ms"], m["pool.job_run_tail_ms"] = percentile(run, 50), percentile(run, tailPct)

	if a.client > 0 {
		client := float64(a.client)
		m["serve.queue_frac"] = float64(a.queue) / client
		m["serve.http_frac"] = float64(a.http) / client
		m["serve.run_frac"] = float64(a.run) / client
		m["serve.retried_429"] = float64(a.retried429)
	}
	if len(a.lateMS) > 0 {
		m["loadgen.late_p99_frac"] = percentile(sortedCopy(a.lateMS), 99) / ms(pacedInterval)
	}
	return m
}
