package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// window is what one measured stretch of warm jobs produced.
type window struct {
	attempted, failed int
	tasks             uint64
	wall, cpu         time.Duration
	latMS             []float64 // one per successful job
	err               error
	// layers is set on traced windows only.
	layers *layerAcc
}

// layerAcc accumulates, over a traced window, the public statistics the
// run-derived layer metrics are computed from.
type layerAcc struct {
	pe   stats.PE      // summed over the PEs
	busy time.Duration // job epoch time x execution units (PEs x workers)
	// unitTasks counts tasks per execution unit, keyed (PE, worker).
	unitTasks map[[2]int]uint64
	comm      shmem.CounterSnapshot

	jobSamples
}

// jobSamples is what the traced jobs themselves add. runMS has one sample
// per job of the time the fleet spent on it: stats.Run.Elapsed, or the
// RunSeconds of a serve job's JobStatus. The rest is the serve workloads':
// sums over the jobs of the server's own queue and run time, of the
// client's submit-to-terminal latency and of the part of it beyond the
// server's TotalSeconds (HTTP and gateway), the 429 retries, and one sample
// per job of how late the paced generator fired.
type jobSamples struct {
	runMS                    []float64
	queue, run, http, client time.Duration
	retried429               int
	lateMS                   []float64
}

func (s *jobSamples) add(o jobSamples) {
	s.runMS = append(s.runMS, o.runMS...)
	s.queue, s.run, s.http, s.client = s.queue+o.queue, s.run+o.run, s.http+o.http, s.client+o.client
	s.retried429 += o.retried429
	s.lateMS = append(s.lateMS, o.lateMS...)
}

// fleetSnapshot is the fleet-lifetime state read between jobs, when the
// pools are quiescent: the ranks' summed remote-operation counters and each
// rank's cumulative statistics. A traced window reports the difference of
// two snapshots rather than the sum of its jobs' stats.Run: a job's
// per-worker rows read zero from a fleet's second job on, because
// Pool.Stats shares the rows' backing array with the snapshot RunJob
// differences against. The copy below breaks that sharing.
type fleetSnapshot struct {
	comm shmem.CounterSnapshot
	pes  []stats.PE
}

func snapshotFleet(f *pool.Fleet, pes int) fleetSnapshot {
	s := fleetSnapshot{pes: make([]stats.PE, pes)}
	for r := range s.pes {
		p := f.Pool(r)
		s.comm = s.comm.Add(p.Shmem().Counters().Snapshot())
		s.pes[r] = p.Stats()
		s.pes[r].Workers = append([]stats.Worker(nil), s.pes[r].Workers...)
	}
	return s
}

// fold stores what the fleet did between two snapshots. busy is the wall
// time the scheduler fractions divide: job epoch time x execution units.
func (a *layerAcc) fold(earlier, now fleetSnapshot, busy time.Duration) {
	a.comm, a.busy = now.comm.Sub(earlier.comm), busy
	a.unitTasks = make(map[[2]int]uint64)
	for r := range now.pes {
		d := now.pes[r].Delta(earlier.pes[r])
		a.pe.Add(d)
		if len(d.Workers) == 0 {
			a.unitTasks[[2]int{r, 0}] = d.TasksExecuted
		}
		for _, w := range d.Workers {
			a.unitTasks[[2]int{w.PE, w.ID}] = w.TasksExecuted
		}
	}
}

// hangGuard bounds every job: one that outlives the workload's deadline
// dumps the world's flight journals and ends the run with a non-zero exit,
// so a wedged inbox or barrier costs seconds, not the pipeline's budget.
type hangGuard struct {
	wl                   *workload
	world                *shmem.World
	start                time.Time
	attempted, completed atomic.Int64
}

func newHangGuard(wl *workload, world *shmem.World) *hangGuard {
	return &hangGuard{wl: wl, world: world, start: time.Now()}
}

// watch starts one job's deadline; the caller calls the returned function
// when the job has completed.
func (g *hangGuard) watch() (done func()) {
	g.attempted.Add(1)
	t := time.AfterFunc(g.wl.deadline(), g.expire)
	return func() {
		t.Stop()
		g.completed.Add(1)
	}
}

func (g *hangGuard) expire() {
	dumpErr := g.world.DumpFlight("benchmark job deadline")
	att, done := g.attempted.Load(), g.completed.Load()
	fmt.Printf("HANG %s: a job outlived its %v deadline; jobs_attempted=%d jobs_failed=%d (warm-up included) after %.1fs\n",
		g.wl.name, g.wl.deadline(), att, att-done, time.Since(g.start).Seconds())
	fmt.Printf("flight journals: %s (dump error: %v)\n", g.world.Config().FlightDir, dumpErr)
	printResult(result{Correct: false, Attempted: int(att), Failed: int(att - done), Metrics: map[string]metricValue{}})
	os.Exit(3)
}
