package uts

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"sws/internal/pool"
	"sws/internal/shmem"
)

// TestRunNodeSpawnLoopAllocs pins an interior node's spawn loop at zero
// allocations: the children are written one at a time into the node's own
// payload buffer, not into a fresh slice each. CI repeats it 5 times under
// -race: it counts inside a live job, and what else allocates during the
// window differs from run to run.
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
		enc := root.Encode()
		probe := reg.MustRegister("probe", func(tc *pool.TaskCtx, _ []byte) error {
			var buf [PayloadSize]byte
			var runErr error
			allocs = testing.AllocsPerRun(100, func() {
				copy(buf[:], enc)
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

// TestRunNodeSpawnsChildren pins the body's in-place expansion to the node
// API: an interior node spawns exactly Child(n, i).Encode() for i = 0 ..
// NumChildren(n)-1, in that order, on each tree class — the root and the
// first interior node of depth 1. The body runs inside a probe task with
// its spawns bound to a recorder; one PE runs its queue newest first, so
// the recorder sees the children in reverse spawn order. It is
// deterministic: CI repeats it 5 times under -race only beside the body's
// other tests, so a repeat that fails where one passed is a data race.
func TestRunNodeSpawnsChildren(t *testing.T) {
	for _, params := range []Params{Tiny, TinyLinear, TinyBin} {
		t.Run(params.String(), func(t *testing.T) {
			root := Root(params)
			nodes := []Node{root}
			for i := range params.NumChildren(root) {
				if c := Child(root, i); params.NumChildren(c) > 0 {
					nodes = append(nodes, c)
					break
				}
			}
			if len(nodes) < 2 || params.NumChildren(root) == 0 {
				t.Fatalf("no interior node at depths 0 and 1: %d", len(nodes))
			}
			for _, n := range nodes {
				var want [][]byte
				for i := range params.NumChildren(n) {
					want = append(want, Child(n, i).Encode())
				}
				got := spawnsOf(t, params, n)
				slices.Reverse(got)
				if !slices.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("node at depth %d spawned %d payloads %x, want %d %x", n.Depth, len(got), got, len(want), want)
				}
			}
		})
	}
}

// spawnsOf runs n's body on a one-PE pool and returns, in the order they
// ran, the payloads it spawned.
func spawnsOf(t *testing.T, params Params, n Node) [][]byte {
	t.Helper()
	wl, err := NewWorkload(params)
	if err != nil {
		t.Fatal(err)
	}
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		wl.Bind(reg.MustRegister("record", func(_ *pool.TaskCtx, payload []byte) error {
			got = append(got, slices.Clone(payload))
			return nil
		}))
		probe := reg.MustRegister("probe", func(tc *pool.TaskCtx, _ []byte) error {
			return wl.runNode(tc, n.Encode())
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
	return got
}

// A payload that is not one encoded node fails typed, in the body and in
// DecodeNode, before the body touches its task context. Deterministic: CI
// repeats it 5 times under -race only beside the body's other tests.
func TestRunNodeRejectsPayloadSize(t *testing.T) {
	wl, err := NewWorkload(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 7, PayloadSize - 1, PayloadSize + 1} {
		if err := wl.runNode(nil, make([]byte, n)); !errors.Is(err, ErrPayloadSize) {
			t.Errorf("runNode on %d bytes: %v, want ErrPayloadSize", n, err)
		}
		if _, err := DecodeNode(make([]byte, n)); !errors.Is(err, ErrPayloadSize) {
			t.Errorf("DecodeNode on %d bytes: %v, want ErrPayloadSize", n, err)
		}
	}
}

// TestBusyPEsShareOneCore is the liveness half of the yield cadence
// (pool.TestBusyOwnerYieldCadence is the cost half): four PEs on one core,
// task bodies that never yield. A busy PE cedes the core only on its
// cadence, and that must still be often enough for every thief to get in,
// find work and run some of it before the tree is gone. CI repeats it 5
// times under -race: where the cedes fall, and so which thief gets in
// first, differs from run to run.
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
