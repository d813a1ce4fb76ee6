package pool

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
)

// fleetTree registers a binary-tree task ("node" with a depth argument)
// and returns a register function plus the spawned/executed counters it
// feeds.
type fleetCounters struct {
	executed atomic.Uint64
}

func treeRegister(cs *fleetCounters) (func(int, *Registry) error, *atomic.Uint32) {
	// Handles are identical on every rank (SPMD registration order); the
	// atomic is only to publish the value race-free from concurrent PE
	// warmups to the test goroutine.
	h := new(atomic.Uint32)
	reg := func(rank int, r *Registry) error {
		hh, err := r.Register("node", func(tc *TaskCtx, payload []byte) error {
			args, _ := task.ParseArgs(payload, 1)
			cs.executed.Add(1)
			if args[0] > 0 {
				for i := 0; i < 2; i++ {
					if err := tc.Spawn(task.Handle(h.Load()), task.Args(args[0]-1)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		h.Store(uint32(hh))
		return err
	}
	return reg, h
}

// treeTasks is the node count of a binary tree of the given depth.
func treeTasks(depth int) uint64 { return 1<<(depth+1) - 1 }

func treeJob(h *atomic.Uint32, depth int) Job {
	return Job{Seed: func(p *Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(task.Handle(h.Load()), task.Args(uint64(depth)))
	}}
}

// A warm fleet runs back-to-back jobs with exactly-once accounting per
// job and no transport re-attach: the world's attach counter stays at
// NumPEs across every job.
func TestFleetWarmJobs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testFleetWarmJobs(t, workers) })
	}
}

func testFleetWarmJobs(t *testing.T, workers int) {
	const pes, depth, jobs = 4, 6, 8
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var cs fleetCounters
	reg, h := treeRegister(&cs)
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1, Workers: workers}, Register: func(rank int, r *Registry) error { return reg(rank, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := w.Attaches(); got != pes {
		t.Fatalf("attaches after warmup = %d, want %d", got, pes)
	}
	want := treeTasks(depth)
	for job := 1; job <= jobs; job++ {
		before := cs.executed.Load()
		run, err := f.Run(treeJob(h, depth))
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		// The job's ledger balances: every task of THIS job executed, and
		// every one but the root — seeded before the job's baseline — was
		// spawned under it.
		tot := run.Total()
		if tot.TasksExecuted != want || tot.TasksSpawned+1 != want {
			t.Fatalf("job %d: per-job stats report %d spawned on top of 1 root, %d executed, want %d tasks",
				job, tot.TasksSpawned, tot.TasksExecuted, want)
		}
		// The per-worker rows are job-scoped too, at any worker count, on
		// the first job and every later one.
		var rowExec, rowSpawn uint64
		for _, wk := range tot.Workers {
			rowExec += wk.TasksExecuted
			rowSpawn += wk.TasksSpawned
		}
		if len(tot.Workers) != pes*workers || rowExec != tot.TasksExecuted || rowSpawn != tot.TasksSpawned {
			t.Fatalf("job %d: %d per-worker rows report %d spawned, %d executed, want %d rows summing to %d and %d",
				job, len(tot.Workers), rowSpawn, rowExec, pes*workers, tot.TasksSpawned, tot.TasksExecuted)
		}
		if got := cs.executed.Load() - before; got != want {
			t.Fatalf("job %d: executed %d tasks, want %d (exactly-once per job)", job, got, want)
		}
		if got := w.Attaches(); got != pes {
			t.Fatalf("job %d: attaches = %d, want %d (transport re-attach between jobs)", job, got, pes)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// A job's statistics are counters only, and they lose nothing: on every
// job of a warm multi-worker fleet, the fleet's per-job figures equal the
// difference of the full cumulative Stats taken at the job's baseline
// (after Seed) and after it, counter for counter and worker row for worker
// row. Lat is the one field allowed to differ: the job carries none.
func TestFleetJobDeltaIsCounters(t *testing.T) {
	const pes, workers, depth, jobs = 2, 2, 7, 3
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var cs fleetCounters
	reg, h := treeRegister(&cs)
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1, Workers: workers}, Register: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for job := 1; job <= jobs; job++ {
		var before [pes]stats.PE
		seed := treeJob(h, depth).Seed
		run, err := f.Run(Job{Seed: func(p *Pool, rank int) error {
			err := seed(p, rank)
			before[rank] = p.Stats() // where RunJob takes its baseline
			return err
		}})
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		var want stats.PE
		for rank := range before {
			want.Add(f.Pool(rank).Stats().Delta(before[rank]))
		}
		if len(want.Lat) == 0 {
			t.Fatalf("job %d: the cumulative snapshots carry no histograms: nothing to leave out", job)
		}
		got := run.Total()
		if got.Lat != nil {
			t.Errorf("job %d: the job's stats carry %d histograms, want none", job, len(got.Lat))
		}
		want.Lat = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d: per-job stats differ from the cumulative difference:\n got  %+v\n want %+v", job, got, want)
		}
		if got.TasksSpawned == 0 || len(got.Workers) != pes*workers {
			t.Errorf("job %d: %d spawned over %d worker rows: the job did not exercise the rows", job, got.TasksSpawned, len(got.Workers))
		}
	}
}

// A no-op job on a warm shm fleet allocates at most 16 objects: the job's
// bookkeeping (two counter snapshots per PE, their delta, the fleet's
// result slots), not a copy of every latency histogram per snapshot.
func TestFleetJobAllocs(t *testing.T) {
	if !shmem.ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	const pes, budget = 2, 16
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20, Transport: shmem.TransportShm})
	if err != nil {
		t.Fatal(err)
	}
	var noop atomic.Uint32
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1}, Register: func(rank int, r *Registry) error {
		h, err := r.Register("noop", func(*TaskCtx, []byte) error { return nil })
		noop.Store(uint32(h))
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	job := Job{Seed: func(p *Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(task.Handle(noop.Load()), nil)
	}}
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Run(job); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("a no-op job allocates %.1f objects", allocs)
	if allocs > budget {
		t.Errorf("a no-op job allocates %.1f objects, budget %d", allocs, budget)
	}
}

// The terminated gauge belongs to the current job: a warm fleet resets it
// before each job's opening barrier, so a task of the second job reads 0
// on its PE, and every PE reads 1 again once the job has terminated.
func TestTerminatedGaugeResetsPerJob(t *testing.T) {
	const pes, jobs = 2, 3
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	var probe atomic.Uint32
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1}, Register: func(rank int, r *Registry) error {
		h, err := r.Register("probe", func(tc *TaskCtx, _ []byte) error {
			seen.Store(tc.p.bk.terminated.Load())
			return nil
		})
		probe.Store(uint32(h))
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for job := 1; job <= jobs; job++ {
		seen.Store(-1)
		if _, err := f.Run(Job{Seed: func(p *Pool, rank int) error {
			if rank != 0 {
				return nil
			}
			return p.Add(task.Handle(probe.Load()), nil)
		}}); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got := seen.Load(); got != 0 {
			t.Errorf("job %d: a running task read sws_pool_terminated = %d, want 0", job, got)
		}
		for rank := 0; rank < pes; rank++ {
			if got := f.Pool(rank).bk.terminated.Load(); got != 1 {
				t.Errorf("job %d: PE %d reads sws_pool_terminated = %d after the job, want 1", job, rank, got)
			}
		}
	}
}

// The acceptance bar from the issue: a 4-PE fleet sustains >= 100
// back-to-back jobs with exactly-once per-job accounting, warm-start
// verified by the attach counter. Runs multi-worker PEs so the two-level
// execution layer is exercised across job boundaries too (CI runs this
// package under -race).
func TestFleetHundredJobs(t *testing.T) {
	const pes, workers, depth, jobs = 4, 2, 4, 100
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var cs fleetCounters
	reg, h := treeRegister(&cs)
	f, err := NewFleet(w, FleetOptions{
		Pool:     Config{Seed: 1, Workers: workers},
		Register: func(rank int, r *Registry) error { return reg(rank, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := treeTasks(depth)
	for job := 1; job <= jobs; job++ {
		before := cs.executed.Load()
		run, err := f.Run(treeJob(h, depth))
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got := cs.executed.Load() - before; got != want {
			t.Fatalf("job %d: executed %d tasks, want %d", job, got, want)
		}
		if got := run.Total().TasksExecuted; got != want {
			t.Fatalf("job %d: per-job stats report %d, want %d", job, got, want)
		}
	}
	if got := w.Attaches(); got != pes {
		t.Fatalf("attaches after %d jobs = %d, want %d", jobs, got, pes)
	}
	if got := f.Seq(); got != jobs {
		t.Fatalf("fleet seq = %d, want %d", got, jobs)
	}
}

// Concurrent submitters: Run is safe from many goroutines; jobs
// serialize and every one completes with its own exact accounting in
// aggregate.
func TestFleetConcurrentSubmitters(t *testing.T) {
	const pes, depth, submitters, each = 4, 5, 4, 5
	w, err := shmem.NewWorld(shmem.Config{NumPEs: pes, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var cs fleetCounters
	reg, h := treeRegister(&cs)
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1}, Register: func(rank int, r *Registry) error { return reg(rank, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				run, err := f.Run(treeJob(h, depth))
				if err != nil {
					errs[s] = err
					return
				}
				if got := run.Total().TasksExecuted; got != treeTasks(depth) {
					errs[s] = fmt.Errorf("job stats report %d tasks, want %d", got, treeTasks(depth))
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", s, err)
		}
	}
	if got, want := cs.executed.Load(), uint64(submitters*each)*treeTasks(depth); got != want {
		t.Fatalf("total executed %d, want %d", got, want)
	}
	if got := w.Attaches(); got != pes {
		t.Fatalf("attaches = %d, want %d", got, pes)
	}
}

// The fleet must serve jobs on the lockstep sim transport too: awaitJob
// polls through a Wait there instead of parking on a channel (a parked PE
// goroutine would hold the lockstep token and freeze the world).
func TestFleetSimTransport(t *testing.T) {
	const pes, depth, jobs = 3, 4, 3
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: pes, HeapBytes: 4 << 20, Transport: shmem.TransportSim,
		Sim: shmem.SimOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cs fleetCounters
	reg, h := treeRegister(&cs)
	f, err := NewFleet(w, FleetOptions{Pool: Config{Seed: 1}, Register: func(rank int, r *Registry) error { return reg(rank, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := treeTasks(depth)
	for job := 1; job <= jobs; job++ {
		before := cs.executed.Load()
		if _, err := f.Run(treeJob(h, depth)); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got := cs.executed.Load() - before; got != want {
			t.Fatalf("job %d: executed %d, want %d", job, got, want)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
