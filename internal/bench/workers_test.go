package bench

import (
	"runtime"
	"testing"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/uts"
)

// runUTSAt runs one UTS traversal at the given worker count and returns
// the elapsed wall time and traversed node count.
func runUTSAt(t *testing.T, workers int, work time.Duration) (time.Duration, uint64) {
	t.Helper()
	var wl *uts.Workload
	run, err := RunOnce(RunConfig{
		World: shmem.Config{NumPEs: 2},
		Pool:  pool.Config{PayloadCap: uts.PayloadSize, Workers: workers, Seed: 9},
	}, func() (Workload, error) {
		w, err := uts.NewWorkload(uts.Tiny)
		if err != nil {
			return nil, err
		}
		w.NodeWork = work
		wl = w
		return w, nil
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return run.Elapsed, wl.Nodes()
}

// TestUTSWorkersSweep checks the two-level scheduler traverses the same
// tree at every worker count — the bench-layer view of exactly-once.
func TestUTSWorkersSweep(t *testing.T) {
	var want uint64
	for _, workers := range []int{1, 2, 4} {
		_, nodes := runUTSAt(t, workers, 0)
		if want == 0 {
			want = nodes
		} else if nodes != want {
			t.Fatalf("workers=%d traversed %d nodes, workers=1 traversed %d", workers, nodes, want)
		}
	}
}

// TestUTSWorkersSpeedup checks that compute-bound UTS gets real wall-clock
// speedup from intra-PE workers. Needs spare cores: 2 PEs x 4 workers of
// spinning node work are meaningless on a small runner, so the test skips
// below 4 CPUs. The threshold is deliberately lenient (scheduler overhead,
// shared runner noise); best-of-3 per point smooths the rest.
func TestUTSWorkersSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup, have %d", runtime.NumCPU())
	}
	const work = 20 * time.Microsecond
	best := func(workers int) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if e, _ := runUTSAt(t, workers, work); e < b {
				b = e
			}
		}
		return b
	}
	t1 := best(1)
	t4 := best(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("workers=1: %v, workers=4: %v, speedup %.2fx", t1, t4, speedup)
	if speedup < 1.15 {
		t.Errorf("workers=4 speedup %.2fx < 1.15x (t1=%v t4=%v)", speedup, t1, t4)
	}
}
