package uts

import (
	"runtime"
	"testing"

	"sws/internal/pool"
	"sws/internal/shmem"
)

// TestRunNodeSpawnLoopAllocs pins an interior node's spawn loop at zero
// allocations: the children are encoded one at a time into the node's own
// payload buffer, not into a fresh slice each.
func TestRunNodeSpawnLoopAllocs(t *testing.T) {
	wl, err := NewWorkload(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	root := Root(wl.Params)
	if wl.Params.NumChildren(root) == 0 {
		t.Fatal("root has no children: nothing to measure")
	}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	allocs := -1.0
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		if err := wl.Register(reg); err != nil {
			return err
		}
		// The measurement needs a live TaskCtx, so it runs inside a task: the
		// probe expands the root over and over (runNode leaves the last child
		// in the buffer, so each run restores it), and the job then runs the
		// copies of the root's subtrees it spawned.
		probe := reg.MustRegister("probe", func(tc *pool.TaskCtx, _ []byte) error {
			var buf [PayloadSize]byte
			var runErr error
			allocs = testing.AllocsPerRun(100, func() {
				root.EncodeTo(&buf)
				if err := wl.runNode(tc, buf[:]); err != nil {
					runErr = err
				}
			})
			return runErr
		})
		p, err := pool.New(c, reg, pool.Config{PayloadCap: PayloadSize})
		if err != nil {
			return err
		}
		if err := p.Add(probe, nil); err != nil {
			return err
		}
		return p.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("one interior node's spawn loop allocates %.2f objects, want 0", allocs)
	}
}

// TestBusyPEsShareOneCore is the liveness half of the yield cadence
// (pool.TestBusyOwnerYieldCadence is the cost half): four PEs on one core,
// task bodies that never yield. A busy PE cedes the core only on its
// cadence, and that must still be often enough for every thief to get in,
// find work and run some of it before the tree is gone.
func TestBusyPEsShareOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const npes = 4
	wl, err := NewWorkload(Small)
	if err != nil {
		t.Fatal(err)
	}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: npes, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var executed [npes]uint64
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		if err := wl.Register(reg); err != nil {
			return err
		}
		p, err := pool.New(c, reg, pool.Config{Seed: 4, PayloadCap: PayloadSize})
		if err != nil {
			return err
		}
		if err := wl.Seed(p, c.Rank()); err != nil {
			return err
		}
		if err := p.Run(); err != nil {
			return err
		}
		executed[c.Rank()] = p.Stats().TasksExecuted
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for rank, n := range executed {
		if n == 0 {
			t.Errorf("PE %d executed no task: a thief never got the core while work remained (%v)", rank, executed)
		}
		total += n
	}
	if total != wl.Nodes() {
		t.Errorf("PEs executed %d tasks, workload counted %d nodes", total, wl.Nodes())
	}
}
