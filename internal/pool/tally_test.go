package pool_test

import (
	"testing"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/uts"
)

// runUTS runs tree params on a fresh local world of pes PEs with workers
// workers each, free comms, and returns the workload and the run.
func runUTS(tb testing.TB, params uts.Params, pes, workers int) (*uts.Workload, stats.Run) {
	tb.Helper()
	wl, err := uts.NewWorkload(params)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := pool.RunOnce(w, pool.Config{Workers: workers, Seed: 1},
		func(_ int, reg *pool.Registry) error { return wl.Register(reg) }, wl.Seed, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wl, run
}

// TestTaskTallyExactPastSixteenWorkers: each worker of the world counts in
// a cell of its own with plain increments, so a world of more workers than
// one chunk's sixteen cells counts every node and leaf exactly, and under
// the race detector no two workers write one word.
func TestTaskTallyExactPastSixteenWorkers(t *testing.T) {
	const pes, workers = 5, 4 // cells 0-19
	want, err := uts.CountSerial(uts.Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	wl, run := runUTS(t, uts.Small, pes, workers)
	if wl.Nodes() != want.Nodes || wl.Leaves() != want.Leaves {
		t.Errorf("%d PEs x %d workers counted %d nodes, %d leaves; the serial walk %d, %d",
			pes, workers, wl.Nodes(), wl.Leaves(), want.Nodes, want.Leaves)
	}
	if executed := run.Total().TasksExecuted; executed != want.Nodes {
		t.Errorf("the pool executed %d tasks for %d nodes", executed, want.Nodes)
	}
}

// BenchmarkOwnerPath is ROADMAP item 16's number for the owner path alone:
// UTS T1 on one PE with no executors has no thief, inbox or ring, so its
// time per task is the body plus what the runtime adds to it, while
// uts.CountSerial expands the same nodes with the body's own digest and
// child count and nothing else. It reports both per node and their ratio,
// T₁/Tₛ (item 16's bar is 1.5).
func BenchmarkOwnerPath(b *testing.B) {
	var t1, ts time.Duration
	var nodes uint64
	for range b.N {
		start := time.Now()
		res, err := uts.CountSerial(uts.T1, 0)
		if err != nil {
			b.Fatal(err)
		}
		ts += time.Since(start)
		_, run := runUTS(b, uts.T1, 1, 1)
		t1 += run.Elapsed
		nodes += res.Nodes
	}
	b.ReportMetric(float64(t1.Nanoseconds())/float64(nodes), "ns/task")
	b.ReportMetric(float64(ts.Nanoseconds())/float64(nodes), "serial-ns/node")
	b.ReportMetric(float64(t1)/float64(ts), "T1/Ts")
}
