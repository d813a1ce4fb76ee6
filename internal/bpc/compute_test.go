package bpc

import (
	"runtime"
	"testing"
	"time"

	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/shmem"
)

// The compute wait's yield policy, held by counts: a task body yields on
// every iteration of its wait only when the process hosts more PE and
// executor goroutines than GOMAXPROCS.

// computeQuantum is the longest an uncrowded compute wait holds its core
// between yields (shmem's computeQuantum).
const computeQuantum = 50 * time.Microsecond

// computePE is what one PE of runComputeJob did: its job statistics, the
// polls its queue made waiting for a thief's completion, its scheduler and
// compute yields, and its wall time between the job's barriers.
type computePE struct {
	executed, idle, resetPolls, yields uint64
	wall                               time.Duration
}

// runComputeJob runs one BPC job of 1 µs bodies on 2 one-worker PEs under
// the given GOMAXPROCS (restored on return).
func runComputeJob(t *testing.T, procs int) [2]computePE {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	params := Params{Depth: 32, NConsumers: 128, ConsumerWork: time.Microsecond, ProducerWork: time.Microsecond}
	wl, err := NewWorkload(params)
	if err != nil {
		t.Fatal(err)
	}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var pes [2]computePE
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		if err := wl.Register(reg); err != nil {
			return err
		}
		p, err := pool.New(c, reg, pool.Config{Seed: 5})
		if err != nil {
			return err
		}
		if err := wl.Seed(p, c.Rank()); err != nil {
			return err
		}
		y0 := c.Yields()
		res, err := p.RunJob()
		if err != nil {
			return err
		}
		resetPolls := p.Queue().(*core.Queue).Stats().ResetPolls
		pes[c.Rank()] = computePE{res.Stats.TasksExecuted, res.Stats.IdleIters, resetPolls, c.Yields() - y0, res.Elapsed}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pes[0].executed+pes[1].executed, params.TotalTasks(); got != want {
		t.Fatalf("executed %d tasks, want %d", got, want)
	}
	return pes
}

// TestComputeHoldsCoreWhenNotCrowded: with a core per PE a 1 µs body holds
// it — Gosched would take the Go scheduler's process-wide lock at the task
// rate. The bodies' waits and the scheduler beat cede by one rule on one
// last-cede time, so however many tasks a PE ran its yields are its waits'
// polls (idle iterations, and polls for a thief's completion), one for its
// worker and at most one per compute quantum of its job wall time
// (TestBusyOwnerYieldCadence's budget).
func TestComputeHoldsCoreWhenNotCrowded(t *testing.T) {
	for rank, pe := range runComputeJob(t, 4) {
		quanta := uint64((pe.wall + computeQuantum - 1) / computeQuantum)
		if budget := pe.idle + pe.resetPolls + 1 + quanta; pe.yields > budget {
			t.Errorf("PE %d: %d yields over %d tasks (%d idle iterations, %d completion polls, %v), want <= %d",
				rank, pe.yields, pe.executed, pe.idle, pe.resetPolls, pe.wall, budget)
		}
	}
}

// TestComputeYieldsWhenCrowded: two PEs on one core time-share it, and the
// per-iteration yield is what lets each run as if on a dedicated, slower
// core — every body yields at least once, and both PEs take part in the job.
func TestComputeYieldsWhenCrowded(t *testing.T) {
	for rank, pe := range runComputeJob(t, 1) {
		if pe.executed == 0 {
			t.Errorf("PE %d executed no task on a shared core", rank)
		}
		if pe.yields < pe.executed {
			t.Errorf("PE %d: %d yields over %d tasks, want at least one per body", rank, pe.yields, pe.executed)
		}
	}
}
