package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/uts"
)

// Task graphs are fixed, so every job's task count repeats exactly.
const (
	utsT1Nodes   = 305793 // nodes of uts.T1 under this repo's generator
	bpcDepth     = 128
	bpcConsumers = 256
	ringChains   = 512 // see hopRing: at most 512 keeps two full inboxes impossible
	ringHops     = 128
	heapBytes    = 4 << 20
)

// fleetSpec configures one of the four pool.Fleet workloads.
type fleetSpec struct {
	pes, workers int
	transport    shmem.TransportKind
	// fabric charges bench.DefaultLatency (2us blocking RTT, 200ns inject,
	// 1us/KiB) to every remote op, the paper's communication regime.
	fabric bool
	app    func() (bench.Workload, error)
	// roots is how many tasks one job's Seed adds. A job's statistics
	// delta starts after the seed, so it counts the roots as executed but
	// not as spawned.
	roots uint64
	// remoteSpawns is how many tasks of one job travel through an inbox.
	remoteSpawns uint64
}

func appUTS() (bench.Workload, error) { return uts.NewWorkload(uts.T1) }

func appBPC() (bench.Workload, error) {
	return bpc.NewWorkload(bpc.Params{
		Depth: bpcDepth, NConsumers: bpcConsumers,
		ConsumerWork: time.Microsecond, ProducerWork: time.Microsecond,
	})
}

func appRing() (bench.Workload, error) { return &hopRing{chains: ringChains, hops: ringHops}, nil }

// hopRing is the benchmark's own task graph: chains of tasks that each
// SpawnOn the next rank, so every task but the chain heads travels through
// a remote-spawn inbox. With 2 PEs x 1 worker each inbox has one sender.
// A sender blocks while its target's 256-slot inbox is full, so both PEs
// can block only with more than 2 x 256 chains in flight; 512 cannot wedge.
type hopRing struct {
	chains, hops int
	h            atomic.Uint32
}

func (r *hopRing) Register(reg *pool.Registry) error {
	h, err := reg.Register("bench.hop", func(tc *pool.TaskCtx, payload []byte) error {
		args, err := task.ParseArgs(payload, 1)
		if err != nil || args[0] == 0 {
			return err
		}
		return tc.SpawnOn((tc.Rank()+1)%tc.NumPEs(), task.Handle(r.h.Load()), task.Args(args[0]-1))
	})
	r.h.Store(uint32(h))
	return err
}

// Seed splits the chain heads evenly over the ranks.
func (r *hopRing) Seed(p *pool.Pool, rank int) error {
	n := p.Shmem().NumPEs()
	for i := rank; i < r.chains; i += n {
		if err := p.Add(task.Handle(r.h.Load()), task.Args(uint64(r.hops))); err != nil {
			return err
		}
	}
	return nil
}

// fleetEnv is a world with a warm fleet serving one task graph.
type fleetEnv struct {
	wl    *workload
	spec  fleetSpec
	fleet *pool.Fleet
	app   bench.Workload
	noop  atomic.Uint32
	guard *hangGuard
}

func fleetBuilder(spec fleetSpec) func(*workload, int64, string) (env, error) {
	return func(wl *workload, seed int64, flightDir string) (env, error) {
		app, err := spec.app()
		if err != nil {
			return nil, err
		}
		e := &fleetEnv{wl: wl, spec: spec, app: app}
		cfg := shmem.Config{NumPEs: spec.pes, HeapBytes: heapBytes, Transport: spec.transport, FlightDir: flightDir}
		if spec.fabric {
			cfg.Latency = bench.DefaultLatency()
		}
		e.fleet, err = newFleet(cfg, pool.Config{Seed: seed, Workers: spec.workers}, app, &e.noop)
		if err != nil {
			return nil, err
		}
		e.guard = newHangGuard(wl, e.fleet.World())
		return e, nil
	}
}

// newFleet builds a world and a warm fleet whose registry holds app's
// tasks (if any) followed by a no-op task, whose handle it stores in noop.
func newFleet(cfg shmem.Config, pcfg pool.Config, app bench.Workload, noop *atomic.Uint32) (*pool.Fleet, error) {
	w, err := shmem.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return pool.NewFleet(w, pool.FleetOptions{
		Pool: pcfg,
		Register: func(rank int, reg *pool.Registry) error {
			if app != nil {
				if err := app.Register(reg); err != nil {
					return err
				}
			}
			h, err := reg.Register("bench.noop", func(*pool.TaskCtx, []byte) error { return nil })
			noop.Store(uint32(h))
			return err
		},
	})
}

// noopJob is a job of one no-op task seeded on rank 0.
func noopJob(noop *atomic.Uint32) pool.Job {
	return pool.Job{Seed: func(p *pool.Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(task.Handle(noop.Load()), nil)
	}}
}

func (e *fleetEnv) minimalJob() error {
	defer e.guard.watch()()
	run, err := e.fleet.Run(noopJob(&e.noop))
	if err == nil && run.Total().TasksExecuted != 1 {
		err = fmt.Errorf("single-task job executed %d tasks", run.Total().TasksExecuted)
	}
	return err
}

func (e *fleetEnv) close() error { return e.fleet.Close() }

// check is the correctness gate of one job.
func (e *fleetEnv) check(run stats.Run) error {
	t := run.Total()
	if t.TasksExecuted != e.wl.tasks || t.TasksSpawned+e.spec.roots != t.TasksExecuted {
		return fmt.Errorf("%s: job executed %d tasks and spawned %d on top of %d roots, want %d", e.wl.name, t.TasksExecuted, t.TasksSpawned, e.spec.roots, e.wl.tasks)
	}
	if want := e.spec.remoteSpawns; t.RemoteSpawnsSent != want || t.RemoteSpawnsRecv != want {
		return fmt.Errorf("%s: %d remote spawns sent, %d received, want %d", e.wl.name, t.RemoteSpawnsSent, t.RemoteSpawnsRecv, want)
	}
	return nil
}

// runJob runs one job under the hang guard and records its span tree:
// job > {seed, run}. job's self time is the dispatch from the Fleet.Run
// call to rank 0's seed; run is everything after the seed, i.e. the job
// epoch (barrier, scheduler loops, termination wave, closing barrier).
func (e *fleetEnv) runJob(rec *recorder) (stats.Run, time.Duration, error) {
	var seedStart, seedEnd time.Time
	job := pool.Job{Seed: func(p *pool.Pool, rank int) error {
		if rank != 0 {
			return e.app.Seed(p, rank)
		}
		seedStart = time.Now()
		err := e.app.Seed(p, rank)
		seedEnd = time.Now()
		return err
	}}
	done := e.guard.watch()
	start := time.Now()
	run, err := e.fleet.Run(job)
	end := time.Now()
	done()
	if err == nil {
		err = e.check(run)
	}
	if rec != nil && err == nil {
		id := rec.newJob()
		root := rec.add(id, 0, "job", start, end)
		rec.add(id, root, "seed", seedStart, seedEnd)
		rec.add(id, root, "run", seedEnd, end)
	}
	return run, end.Sub(start), err
}

func (e *fleetEnv) warm(n int) error {
	for i := 0; i < n; i++ {
		if _, _, err := e.runJob(nil); err != nil {
			return err
		}
	}
	return nil
}

func (e *fleetEnv) measure(d time.Duration, rec *recorder) window {
	var win window
	var before fleetSnapshot
	var busy time.Duration
	if rec != nil {
		win.layers = &layerAcc{}
		before = snapshotFleet(e.fleet, e.spec.pes)
	}
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < d {
		win.attempted++
		run, lat, err := e.runJob(rec)
		if err != nil {
			win.failed++
			win.err = err
			break // a failed job poisons the fleet
		}
		win.tasks += e.wl.tasks
		win.latMS = append(win.latMS, ms(lat))
		if win.layers != nil {
			win.layers.runMS = append(win.layers.runMS, ms(run.Elapsed))
			busy += run.Elapsed * time.Duration(e.spec.pes*e.spec.workers)
		}
	}
	win.wall, win.cpu = time.Since(start), cpuTime()-cpu0
	if win.layers != nil {
		win.layers.fold(before, snapshotFleet(e.fleet, e.spec.pes), busy)
	}
	return win
}
