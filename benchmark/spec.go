package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sws/internal/shmem"
)

// workload is one row of the benchmark's workload table. The names, the
// one-line why and the metric names below are mirrored in BENCHMARK.json
// (spec_test.go holds the two in step); bounds and better-directions live
// only there.
type workload struct {
	name string
	why  string
	// tailPct is the fixed percentile job_tail_ms reports: the highest
	// round percentile that keeps at least ten samples beyond it in an
	// 18-second window on the 2-core reference box — except p99 and p80 for
	// the serve pair: above p85 the paced workload's latency is the box's
	// hiccups times backlog, and identical runs disagree by 15-30 %.
	// On uts_t1_local the rule leaves p65 of about 35 half-second jobs,
	// which reads within 3 % of the median: the tail says nothing there
	// that job_p50_ms does not, and a claim should not rest on it.
	tailPct float64
	// tasks is the exact task count of one job; a job that executes any
	// other number is a failed job.
	tasks uint64
	// expected is a typical job time on the reference box; the hang guard
	// fails a job after max(10 x expected, minDeadline).
	expected time.Duration
	// warmup jobs precede the measured window and are not counted.
	warmup int
	// transport names the shmem transport in the fingerprint.
	transport string
	build     func(wl *workload, seed int64, flightDir string) (env, error)
}

const minDeadline = 2 * time.Second

func (wl *workload) deadline() time.Duration {
	if d := 10 * wl.expected; d > minDeadline {
		return d
	}
	return minDeadline
}

// env is one built instance of a workload: a world plus a warm fleet, or a
// job service behind an HTTP listener.
type env interface {
	// minimalJob runs the smallest job the instance accepts; the set-up
	// cycles use it to prove the instance serves before closing it.
	minimalJob() error
	// warm runs n warm-up jobs, which no window counts.
	warm(n int) error
	// measure runs warm jobs for d and returns what it saw. With a
	// recorder it also records one span tree per job and accumulates the
	// public per-job statistics the layer metrics are derived from.
	measure(d time.Duration, rec *recorder) window
	close() error
}

var workloads = []*workload{
	{
		name: "uts_t1_local", tailPct: 65, tasks: utsT1Nodes, expected: 500 * time.Millisecond, warmup: 2, transport: "local",
		why:   "UTS T1 on 2 PEs x 1 worker, free comms: SHA-1 exec and owner-side queue ops dominate, few steals, no mailbox or gateway - the bypass workload for steal, mailbox and serve changes",
		build: fleetBuilder(fleetSpec{pes: 2, workers: 1, transport: shmem.TransportLocal, app: appUTS, roots: 1}),
	},
	{
		name: "uts_workers_local", tailPct: 80, tasks: utsT1Nodes, expected: 300 * time.Millisecond, warmup: 2, transport: "local",
		why:   "same tree on 1 PE x 2 workers: the other scheduler loop (runMulti + ldeque ring), zero inter-PE steals, so a change to either loop shows as gain on one and no loss on the other",
		build: fleetBuilder(fleetSpec{pes: 1, workers: 2, transport: shmem.TransportLocal, app: appUTS, roots: 1}),
	},
	{
		name: "bpc_fine_fabric", tailPct: 90, tasks: bpcDepth * (bpcConsumers + 1), expected: 100 * time.Millisecond, warmup: 2, transport: "local+latency",
		why:   "BPC 128x256 with 1us tasks under the 2us-RTT latency model: about a quarter of tasks move by steal, so communication count on the steal path sets throughput",
		build: fleetBuilder(fleetSpec{pes: 2, workers: 1, transport: shmem.TransportLocal, fabric: true, app: appBPC, roots: 1}),
	},
	{
		name: "spawn_ring_shm", tailPct: 85, tasks: ringChains * (ringHops + 1), expected: 200 * time.Millisecond, warmup: 2, transport: "shm",
		why:   "512 chains x 128 SpawnOn hops over shm: the only workload where mailbox send/drain and raw shm op cost dominate; one sender per inbox by construction",
		build: fleetBuilder(fleetSpec{pes: 2, workers: 1, transport: shmem.TransportShm, app: appRing, roots: ringChains, remoteSpawns: ringChains * ringHops}),
	},
	{
		name: "serve_closed_shm", tailPct: 99, tasks: graphTasks, expected: time.Millisecond, warmup: 50, transport: "shm",
		why:   "job service over shm, closed loop with 2 clients and 127-task jobs: capacity for tiny jobs, where HTTP, admission and the job epoch outweigh the tasks; the fleet never idles",
		build: serveBuilder(false),
	},
	{
		name: "serve_paced_shm", tailPct: 80, tasks: graphTasks, expected: 2 * time.Millisecond, warmup: 50, transport: "shm",
		why:   "same service, open loop at 500 jobs/s timed from each due time: the fleet parks between jobs, so the wake path is on every job and CPU burnt to buy latency shows",
		build: serveBuilder(true),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the seven metrics an untraced run reports.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. "probe" rows are timed
// from this package around a layer's public calls on an otherwise idle
// 2-PE world; "run" rows are read from the public statistics of the traced
// window. A run row that does not apply to a workload (a steal ratio on one
// PE, a gateway share without a gateway) reads 0 there; such rows are all
// counts and ratios, because a time that reads 0 on every run is refused.
var perLayer = []metricDef{
	// shmem, probes per transport.
	{"shmem.fetch_add_ns.local", "ns"}, {"shmem.fetch_add_ns.shm", "ns"}, {"shmem.fetch_add_ns.tcp", "ns"},
	{"shmem.getv_1k_ns.local", "ns"}, {"shmem.getv_1k_ns.shm", "ns"}, {"shmem.getv_1k_ns.tcp", "ns"},
	{"shmem.store_nbi_quiet_ns.local", "ns"}, {"shmem.store_nbi_quiet_ns.shm", "ns"}, {"shmem.store_nbi_quiet_ns.tcp", "ns"},
	{"shmem.barrier_us.shm", "us"}, {"shmem.wait_wake_us.shm", "us"},
	// shmem, run.
	{"shmem.blocking_ops_per_task", "count"}, {"shmem.nbi_ops_per_task", "count"},
	// core, probes.
	{"core.push_pop_ns", "ns"}, {"core.release_acquire_ns", "ns"},
	{"core.steal_us.local", "us"}, {"core.steal_us.shm", "us"}, {"core.steal_us.fabric", "us"},
	{"core.steal_blocking_comms", "count"}, {"core.steal_nbi_comms", "count"},
	// ldeque, probes.
	{"ldeque.push_pop_ns", "ns"}, {"ldeque.contended_ops_per_s", "1/s"},
	// pool scheduler, run.
	{"pool.exec_frac", "ratio"}, {"pool.steal_frac", "ratio"}, {"pool.search_frac", "ratio"}, {"pool.unattributed_frac", "ratio"},
	{"pool.steal_success_ratio", "ratio"}, {"pool.tasks_stolen_frac", "ratio"},
	{"pool.steals_per_ktask", "count"}, {"pool.acquires_per_ktask", "count"}, {"pool.releases_per_ktask", "count"},
	{"pool.idle_iters_per_task", "count"}, {"pool.worker_balance", "ratio"},
	{"pool.job_run_p50_ms", "ms"}, {"pool.job_run_tail_ms", "ms"},
	// pool scheduler and mailbox, probes; mailbox run count.
	{"pool.job_epoch_us.local", "us"}, {"pool.job_epoch_us.shm", "us"},
	{"pool.spawn_on_ns.shm", "ns"}, {"pool.spawn_hop_us.shm", "us"}, {"pool.remote_spawns_per_task", "count"},
	// term, probes.
	{"term.check_us.local", "us"}, {"term.check_us.shm", "us"},
	// serve, run and probe.
	{"serve.queue_frac", "ratio"}, {"serve.run_frac", "ratio"}, {"serve.http_frac", "ratio"},
	{"serve.retried_429", "count"}, {"serve.submit_us", "us"},
	// harness.
	{"uts.serial_nodes_per_s", "1/s"}, {"loadgen.late_p99_frac", "ratio"},
}

// benchmarkFile mirrors BENCHMARK.json at the root of the checkout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the benchmark runs from the checkout root (run.sh) or
// from its own directory (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
