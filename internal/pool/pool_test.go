package pool

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/obs"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
)

func runWorld(t *testing.T, npes int, kind shmem.TransportKind, body func(*shmem.Ctx) error) {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: npes, HeapBytes: 8 << 20, Transport: kind})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	h1, err := r.Register("a", func(*TaskCtx, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	h2 := r.MustRegister("b", func(*TaskCtx, []byte) error { return nil })
	if h1 == h2 {
		t.Error("duplicate handles")
	}
	if _, err := r.Register("a", func(*TaskCtx, []byte) error { return nil }); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := r.Register("c", nil); err == nil {
		t.Error("nil func accepted")
	}
	if h, ok := r.Lookup("b"); !ok || h != h2 {
		t.Error("lookup failed")
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Error("phantom lookup")
	}
}

func TestParseProtocol(t *testing.T) {
	if p, err := ParseProtocol("sws"); err != nil || p != SWS {
		t.Error("sws parse failed")
	}
	if p, err := ParseProtocol("SDC"); err != nil || p != SDC {
		t.Error("SDC parse failed")
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
	if SWS.String() != "sws" || SDC.String() != "sdc" {
		t.Error("protocol strings wrong")
	}
}

func TestNewValidation(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		if _, err := New(c, nil, Config{}); err == nil {
			return fmt.Errorf("nil registry accepted")
		}
		if _, err := New(c, NewRegistry(), Config{}); err == nil {
			return fmt.Errorf("empty registry accepted")
		}
		if _, err := New(c, nil, Config{Protocol: Protocol(99)}); err == nil {
			return fmt.Errorf("bogus protocol accepted")
		}
		return nil
	})
}

// recursiveSumWorkload spawns a binary recursion of given depth; each leaf
// adds 1 to a shared Go-level accumulator. The expected count is 2^depth
// leaves, and the pool must execute 2^(depth+1)-1 tasks in total.
func recursiveSumWorkload(t *testing.T, npes int, kind shmem.TransportKind, proto Protocol, depth uint64) {
	t.Helper()
	var leaves atomic.Int64
	var totalExecuted atomic.Int64
	runWorld(t, npes, kind, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			d := args[0]
			if d == 0 {
				leaves.Add(1)
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(d-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Protocol: proto, Seed: 42, QueueCapacity: 2048})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(depth)); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		totalExecuted.Add(int64(p.Stats().TasksExecuted))
		return nil
	})
	wantLeaves := int64(1) << depth
	wantTasks := int64(1)<<(depth+1) - 1
	if leaves.Load() != wantLeaves {
		t.Errorf("leaves = %d, want %d", leaves.Load(), wantLeaves)
	}
	if totalExecuted.Load() != wantTasks {
		t.Errorf("executed = %d, want %d", totalExecuted.Load(), wantTasks)
	}
}

// A task that spawns more children than the split queue holds runs them
// all exactly once, on both protocols and with or without an executor:
// spawns past a full queue go to the owner's private deque and flow back
// into the queue as steals free space, instead of waiting for space that
// only the spawner could make.
func TestFullQueueOverflowsToOwnerDeque(t *testing.T) {
	const children = 8192 + 1000 // the default QueueCapacity, overrun
	for _, proto := range []Protocol{SWS, SDC} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/workers=%d", proto, workers), func(t *testing.T) {
				var ran [children]atomic.Int32
				var spilled atomic.Uint64
				var elapsed time.Duration
				runWorld(t, 2, shmem.TransportLocal, func(c *shmem.Ctx) error {
					reg := NewRegistry()
					child := reg.MustRegister("child", func(_ *TaskCtx, payload []byte) error {
						args, err := task.ParseArgs(payload, 1)
						if err != nil {
							return err
						}
						ran[args[0]].Add(1)
						return nil
					})
					root := reg.MustRegister("root", func(tc *TaskCtx, _ []byte) error {
						for i := uint64(0); i < children; i++ {
							if err := tc.Spawn(child, task.Args(i)); err != nil {
								return err
							}
						}
						return nil
					})
					p, err := New(c, reg, Config{Protocol: proto, Seed: 3, Workers: workers})
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						if err := p.Add(root, nil); err != nil {
							return err
						}
					}
					if err := p.Run(); err != nil {
						return err
					}
					spilled.Add(p.Stats().TasksSpilled)
					if c.Rank() == 0 {
						elapsed = p.Elapsed()
					}
					return nil
				})
				for i := range ran {
					if n := ran[i].Load(); n != 1 {
						t.Fatalf("child %d ran %d times, want 1", i, n)
					}
				}
				if spilled.Load() == 0 {
					t.Fatal("no spawn overflowed the queue; the test checks nothing")
				}
				if elapsed > pushTimeout/10 {
					t.Fatalf("job took %v: a spawn waited for queue space", elapsed)
				}
			})
		}
	}
}

// Tasks that overflowed into the owner's private deque still reach
// thieves: as steals free the split queue, the owner moves the deque's
// oldest tasks back into it for Release to share, so the thief runs more
// tasks than the queue ever held at once. The world is the sim's, where
// each child's Compute is a charge on the virtual clock: the thief's share
// is the seed's, not the host scheduler's (on the wall clock a thief that
// got no core while the owner ran them all would fail the bound).
func TestOverflowReachesThieves(t *testing.T) {
	const capacity, children = 8, 400
	var thiefRan atomic.Uint64
	runWorld(t, 2, shmem.TransportSim, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		child := reg.MustRegister("child", func(tc *TaskCtx, _ []byte) error {
			tc.Compute(20 * time.Microsecond)
			return nil
		})
		root := reg.MustRegister("root", func(tc *TaskCtx, _ []byte) error {
			for i := 0; i < children; i++ {
				if err := tc.Spawn(child, nil); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 5, QueueCapacity: capacity})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(root, nil); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			thiefRan.Store(p.Stats().TasksExecuted)
		}
		return nil
	})
	if n := thiefRan.Load(); n <= capacity {
		t.Fatalf("thief ran %d of %d overflowed tasks, no more than one %d-slot queue holds", n, children, capacity)
	}
	t.Logf("thief ran %d of %d overflowed tasks", thiefRan.Load(), children)
}

func TestRecursiveWorkloadSWS(t *testing.T) {
	recursiveSumWorkload(t, 4, shmem.TransportLocal, SWS, 12)
}

func TestRecursiveWorkloadSDC(t *testing.T) {
	recursiveSumWorkload(t, 4, shmem.TransportLocal, SDC, 12)
}

func TestRecursiveWorkloadSWSFused(t *testing.T) {
	recursiveSumWorkload(t, 4, shmem.TransportLocal, SWSFused, 12)
}

func TestRecursiveWorkloadSinglePE(t *testing.T) {
	recursiveSumWorkload(t, 1, shmem.TransportLocal, SWS, 10)
}

func TestRecursiveWorkloadTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp transport in -short mode")
	}
	recursiveSumWorkload(t, 3, shmem.TransportTCP, SWS, 9)
	recursiveSumWorkload(t, 3, shmem.TransportTCP, SDC, 9)
}

func TestRecursiveWorkloadNoEpochsNoDamping(t *testing.T) {
	var leaves atomic.Int64
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if args[0] == 0 {
				leaves.Add(1)
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{NoEpochs: true, NoDamping: true, Seed: 7, QueueCapacity: 2048})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(11))); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if leaves.Load() != 1<<11 {
		t.Errorf("leaves = %d, want %d", leaves.Load(), 1<<11)
	}
}

// Work seeded on every PE (not just rank 0) must all run.
func TestAllPEsSeed(t *testing.T) {
	var ran atomic.Int64
	const perPE = 50
	runWorld(t, 4, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("one", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		p, err := New(c, reg, Config{Seed: 1})
		if err != nil {
			return err
		}
		for i := 0; i < perPE; i++ {
			if err := p.Add(h, nil); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if ran.Load() != 4*perPE {
		t.Errorf("ran %d tasks, want %d", ran.Load(), 4*perPE)
	}
}

// Steals must actually happen when the work is seeded on one PE: the
// paper's whole premise is load distribution.
func TestWorkIsDistributed(t *testing.T) {
	var executedBy [4]atomic.Int64
	runWorld(t, 4, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			executedBy[tc.Rank()].Add(1)
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 4; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			// Enough work per task that thieves have time to engage.
			busy := 0
			for i := 0; i < 50000; i++ {
				busy += i
			}
			_ = busy
			return nil
		})
		p, err := New(c, reg, Config{Seed: 3, QueueCapacity: 4096})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(6))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		if c.Rank() != 0 && p.Stats().StealsAttempted == 0 {
			return fmt.Errorf("PE %d never attempted a steal", c.Rank())
		}
		return nil
	})
	helped := 0
	for i := 1; i < 4; i++ {
		if executedBy[i].Load() > 0 {
			helped++
		}
	}
	if helped == 0 {
		t.Error("no work was ever stolen from the seeding PE")
	}
}

// A failing task must abort the run with its error.
func TestTaskErrorPropagates(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rerr := w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("boom", func(tc *TaskCtx, payload []byte) error {
			return fmt.Errorf("deliberate failure")
		})
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, nil); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if rerr == nil {
		t.Fatal("task error swallowed")
	}
}

// Executing a descriptor whose handle was never registered must fail
// loudly, not crash.
func TestUnknownHandle(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rerr := w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		reg.MustRegister("only", func(tc *TaskCtx, payload []byte) error { return nil })
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		if err := p.Add(task.Handle(42), nil); err != nil {
			return err
		}
		return p.Run()
	})
	if rerr == nil {
		t.Fatal("unknown handle accepted")
	}
}

// A warm pool serves repeated jobs: each Run is its own termination
// epoch, cumulative stats keep growing, and RunJob reports per-job
// deltas.
func TestRunTwice(t *testing.T) {
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		ran := 0
		h := reg.MustRegister("count", func(tc *TaskCtx, payload []byte) error { ran++; return nil })
		p, err := New(c, reg, Config{})
		if err != nil {
			return err
		}
		for job := 1; job <= 3; job++ {
			if err := p.Add(h, nil); err != nil {
				return err
			}
			res, err := p.RunJob()
			if err != nil {
				return fmt.Errorf("job %d: %w", job, err)
			}
			if res.Seq != uint64(job) {
				return fmt.Errorf("job %d: seq %d", job, res.Seq)
			}
			if res.Stats.TasksExecuted != 1 {
				return fmt.Errorf("job %d: per-job executed %d, want 1", job, res.Stats.TasksExecuted)
			}
			if got := p.Stats().TasksExecuted; got != uint64(job) {
				return fmt.Errorf("job %d: cumulative executed %d, want %d", job, got, job)
			}
			if ran != job {
				return fmt.Errorf("job %d: task ran %d times", job, ran)
			}
		}
		return nil
	})
}

// Spawn/execute accounting must balance across the world.
func TestStatsBalance(t *testing.T) {
	var spawned, executed atomic.Int64
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, _ := task.ParseArgs(payload, 1)
			if args[0] > 0 {
				for i := 0; i < 3; i++ {
					if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Protocol: SDC, Seed: 5})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(5))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		s := p.Stats()
		spawned.Add(int64(s.TasksSpawned))
		executed.Add(int64(s.TasksExecuted))
		return nil
	})
	want := int64((243*3 - 1) / 2) // sum_{i=0..5} 3^i = 364
	if spawned.Load() != want || executed.Load() != want {
		t.Errorf("spawned=%d executed=%d, want %d each", spawned.Load(), executed.Load(), want)
	}
}

// Tracing must capture the scheduling story of a run: executions on every
// PE, successful steals, releases, and termination.
func TestTracing(t *testing.T) {
	// The rings keep the newest events, and a PE that idles while a peer is
	// descheduled records every failed steal and its remote ops: size them
	// so a loaded box cannot push the 2,047 executions out before
	// termination.
	tr, err := trace.NewSet(3, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 3, Trace: tr})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(10))); err != nil {
				return err
			}
		}
		return p.Run()
	})
	counts := tr.CountByKind()
	if counts[trace.TaskExec] == 0 {
		t.Error("no exec events traced")
	}
	if counts[trace.Terminated] != 3 {
		t.Errorf("terminated events = %d, want 3", counts[trace.Terminated])
	}
	if counts[trace.Release] == 0 {
		t.Error("no release events traced")
	}
	// The trace set is the PEs' one ring: what every run journals — steal
	// spans with both their sides, epoch flips — is on the same timeline.
	for _, k := range []trace.Kind{trace.Steal, trace.VictimOp, trace.EpochFlip} {
		if counts[k] == 0 {
			t.Errorf("no %v events in the trace: the always-on events went to another ring", k)
		}
	}
}

// TestMetricsAndLatency runs a small workload with a Gatherer attached and
// checks that (a) the live metrics endpoint data includes pool counters and
// shmem per-op latency quantiles, and (b) Stats().Lat carries non-empty
// pool-level and shmem-level histograms. Every node computes for a few
// microseconds, so the idle PEs find work to steal before rank 0 has run
// the whole tree, whoever else shares the cores. The run is traced: only a
// trace times task bodies one by one, so only a traced run fills "exec".
func TestMetricsAndLatency(t *testing.T) {
	g := obs.NewGatherer()
	tr, err := trace.NewSet(3, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	var latKeys sync.Map
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			tc.Compute(5 * time.Microsecond)
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 7, Metrics: g, Trace: tr})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(10))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		for k, s := range p.Stats().Lat {
			if !s.Empty() {
				latKeys.Store(k, true)
			}
		}
		return nil
	})

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sws_pool_tasks_executed_total",
		// The owner is worker 0 of every PE, executors or not.
		"sws_pool_worker_tasks_executed_total",
		`worker="0"`,
		"sws_pool_steals_total",
		`outcome="ok"`,
		`sws_pool_queue_depth_tasks{pe="0"`,
		"sws_pool_op_latency_seconds",
		"sws_pool_terminated",
		"sws_shmem_remote_ops_total",
		"sws_shmem_op_latency_seconds",
		`quantile="0.99"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	for _, want := range []string{"exec", "steal"} {
		if _, ok := latKeys.Load(want); !ok {
			t.Errorf("Stats().Lat missing non-empty %q histogram", want)
		}
	}
	foundShmem := false
	latKeys.Range(func(k, _ any) bool {
		if strings.HasPrefix(k.(string), "shmem/") {
			foundShmem = true
			return false
		}
		return true
	})
	if !foundShmem {
		t.Error("Stats().Lat has no shmem/ op histograms")
	}
	if _, st, _, _, _ := runTree(t, 6, Config{}, nil); !st.Lat["exec"].Empty() {
		t.Errorf("an untraced run timed %d task bodies", st.Lat["exec"].Count())
	}
}

// TestOpLatencyOffUnderSim checks the other half of the rule
// TestMetricsAndLatency pins for wall-clock transports: under the sim an
// op's wall-clock latency means nothing, so no shmem histograms populate
// (and no clock is read per op).
func TestOpLatencyOffUnderSim(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: 2, HeapBytes: 1 << 20, Transport: shmem.TransportSim,
		Sim: shmem.SimOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		sym, err := c.Alloc(64)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := c.FetchAdd64((c.Rank()+1)%c.NumPEs(), sym, 1); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if n := c.Counters().Latency(shmem.OpFetchAdd).Count(); n != 0 {
			return fmt.Errorf("sim world recorded %d fetch-add latency samples", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
