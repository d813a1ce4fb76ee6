// Fleet layer: a long-lived pool serving a stream of jobs.
//
// The classic lifecycle — NewWorld, Run one root task, terminate, tear
// everything down — pays fleet spin-up (PE goroutines, transport
// attachment, symmetric-heap registration, victim-set construction) on
// every workload. A Fleet hoists all of that into a once-per-process
// warm layer: it parks one pool per PE on the world's goroutines and
// multiplexes jobs over them, each job getting its own termination
// epoch (Pool.RunJob) and its own stats delta, with zero transport
// re-attachment in between (shmem.World.Attaches stays at NumPEs for
// the fleet's lifetime).
//
// Jobs execute one at a time: a job epoch ends with global quiescence,
// and the double-counting detector has no way to tell two interleaved
// jobs' tasks apart, so execution epochs are exclusive by construction.
// Run is safe for concurrent callers — independent tenants submit
// concurrently and the fleet time-multiplexes them — but fairness and
// admission control belong to the layer above (internal/serve).
package pool

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sws/internal/shmem"
	"sws/internal/stats"
)

// RunOnce is the one-job lifecycle a Fleet hoists: it consumes w's single
// Run, and on every PE builds a pool with cfg over the tasks register
// installs, seeds it, runs it to global termination and then calls finish,
// if non-nil. It returns each PE's Stats and the slowest PE's Elapsed (the
// paper's whole-program timer); on failure, the PEs that finished are
// filled in.
func RunOnce(w *shmem.World, cfg Config, register func(rank int, reg *Registry) error, seed, finish func(p *Pool, rank int) error) (stats.Run, error) {
	run := stats.Run{PEs: make([]stats.PE, w.NumPEs()), Protocol: cfg.Protocol.String()}
	elapsed := make([]time.Duration, w.NumPEs())
	err := w.Run(func(c *shmem.Ctx) error {
		rank := c.Rank()
		reg := NewRegistry()
		if err := register(rank, reg); err != nil {
			return err
		}
		p, err := New(c, reg, cfg)
		if err != nil {
			return err
		}
		if err := seed(p, rank); err != nil {
			return err
		}
		if err := p.Run(); err != nil {
			return err
		}
		run.PEs[rank] = p.Stats()
		elapsed[rank] = p.Elapsed()
		if finish != nil {
			return finish(p, rank)
		}
		return nil
	})
	for _, e := range elapsed {
		run.Elapsed = max(run.Elapsed, e)
	}
	return run, err
}

// Job is one unit of fleet work: a root-task injection plus the job
// epoch that runs it to global termination.
type Job struct {
	// Seed injects the job's root tasks; it is called on every PE (with
	// that PE's pool and rank) after the previous job fully completed and
	// before this job's opening barrier. Typically it Adds a root task on
	// rank 0 and does nothing elsewhere. Seed must not fail on a warm
	// fleet — a failing Seed strands the other PEs at the opening barrier
	// and poisons the whole fleet — so callers validate job specs before
	// submitting (internal/serve does).
	Seed func(p *Pool, rank int) error
}

// FleetOptions configures NewFleet.
type FleetOptions struct {
	// Pool is the per-PE pool configuration (protocol, workers, queue
	// sizing, metrics, trace).
	Pool Config
	// Register populates each PE's task registry. It is called once per
	// PE with a fresh registry; registration order must be identical on
	// every PE (SPMD), as with any pool.
	Register func(rank int, reg *Registry) error
	// Warmup, if non-nil, runs on every PE after its pool is built and
	// before the fleet reports ready — the place for collective
	// symmetric-heap allocations jobs will share (audit slots, result
	// buffers). Runs under the same SPMD discipline as pool.New.
	Warmup func(c *shmem.Ctx, p *Pool) error
}

// fleetJob is one submitted job plus its per-rank result slots.
type fleetJob struct {
	job     Job
	results []JobResult
	errs    []error
	wg      sync.WaitGroup
}

// Fleet is a warm pool-per-PE layer over a world, serving jobs until
// Close.
type Fleet struct {
	w      *shmem.World
	numPEs int

	// chans carries each published job to every PE exactly once
	// (capacity 1; the submit path holds mu across all sends, so ranks
	// always agree on job order).
	chans []chan *fleetJob

	// mu serializes Run and Close: one job epoch at a time.
	mu     sync.Mutex
	closed bool
	seq    uint64

	// runDone resolves when the world's body goroutines have all
	// returned; runErr then carries the world error, if any.
	runDone chan struct{}
	runErr  error

	// pools holds each rank's pool, for post-close inspection and for
	// Warmup-style introspection in tests. During a job they are owned by
	// the PE goroutines.
	pools []*Pool
}

// NewFleet builds a pool on every PE of w and parks the PEs waiting for
// jobs. It consumes the world's single Run: the fleet owns the PE
// goroutines until Close, which also closes the transport. NewFleet
// returns after every PE has built its pool and finished Warmup — from
// that point on, Run never re-attaches transports or re-registers heaps.
func NewFleet(w *shmem.World, opt FleetOptions) (*Fleet, error) {
	if opt.Register == nil {
		return nil, errors.New("pool: fleet needs a Register function")
	}
	if w.Distributed() {
		// A Join'd world runs one local PE per process; the fleet's
		// submit/await choreography assumes all PEs are in-process.
		return nil, errors.New("pool: fleet requires an in-process world (not Join)")
	}
	f := &Fleet{
		w:       w,
		numPEs:  w.NumPEs(),
		chans:   make([]chan *fleetJob, w.NumPEs()),
		runDone: make(chan struct{}),
		pools:   make([]*Pool, w.NumPEs()),
	}
	for i := range f.chans {
		f.chans[i] = make(chan *fleetJob, 1)
	}
	ready := make(chan error, f.numPEs)
	go func() {
		f.runErr = w.Run(func(c *shmem.Ctx) error { return f.peBody(c, opt, ready) })
		close(f.runDone)
	}()
	for i := 0; i < f.numPEs; i++ {
		select {
		case err := <-ready:
			if err != nil {
				// Some PE failed to warm up; the world is poisoned. Drain
				// the remaining PEs by closing the job channels and wait
				// for Run to unwind.
				f.mu.Lock()
				f.closeChansLocked()
				f.mu.Unlock()
				<-f.runDone
				return nil, fmt.Errorf("pool: fleet warmup: %w", err)
			}
		case <-f.runDone:
			err := f.runErr
			if err == nil {
				err = errors.New("pool: world exited during fleet warmup")
			}
			return nil, err
		}
	}
	return f, nil
}

// peBody is one PE's fleet lifetime: build the pool once, warm up,
// report ready, then serve jobs until the fleet closes.
func (f *Fleet) peBody(c *shmem.Ctx, opt FleetOptions, ready chan<- error) error {
	rank := c.Rank()
	reg := NewRegistry()
	if err := opt.Register(rank, reg); err != nil {
		ready <- err
		return err
	}
	p, err := New(c, reg, opt.Pool)
	if err != nil {
		ready <- err
		return err
	}
	if opt.Warmup != nil {
		if err := opt.Warmup(c, p); err != nil {
			ready <- err
			return err
		}
	}
	f.pools[rank] = p
	ready <- nil
	for {
		fj := f.awaitJob(c, rank)
		if fj == nil {
			return nil // fleet closed
		}
		err := f.runOne(p, rank, fj)
		fj.errs[rank] = err
		fj.wg.Done()
		if err != nil {
			// A job-level failure (world poisoned, task error) is fatal to
			// the fleet: the pool's protocol state may be mid-epoch.
			// Returning unwinds this PE; the world poisons the rest.
			return err
		}
	}
}

// runOne seeds and runs one job epoch on this PE.
func (f *Fleet) runOne(p *Pool, rank int, fj *fleetJob) error {
	if fj.job.Seed != nil {
		if err := fj.job.Seed(p, rank); err != nil {
			return fmt.Errorf("pool: job seed on rank %d: %w", rank, err)
		}
	}
	res, err := p.RunJob()
	if err != nil {
		return err
	}
	fj.results[rank] = res
	return nil
}

// awaitJob blocks until the next job (or fleet close). On the lockstep
// sim transport a PE goroutine must never block outside the shmem
// primitives — parking on a raw channel would hold the scheduler token
// and freeze every other PE — so there it polls the channel with a Wait
// as the scheduling point. Real transports block on the channel, so an
// idle fleet burns no CPU.
func (f *Fleet) awaitJob(c *shmem.Ctx, rank int) *fleetJob {
	ch := f.chans[rank]
	if c.MultiWorkerCapable() {
		return <-ch
	}
	wait := c.NewWait(0)
	for {
		select {
		case fj := <-ch:
			return fj
		default:
			wait.Poll()
		}
	}
}

// Run executes one job over the warm fleet and returns the aggregated
// per-job statistics (per-PE job-scoped deltas; Elapsed is the slowest
// PE's time on Ctx.Now, the paper's whole-program timer). It is synchronous
// and safe for concurrent callers: jobs serialize on an internal mutex,
// in arrival order.
func (f *Fleet) Run(job Job) (stats.Run, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return stats.Run{}, errors.New("pool: fleet is closed")
	}
	if err := f.w.Err(); err != nil {
		return stats.Run{}, fmt.Errorf("pool: fleet world failed: %w", err)
	}
	f.seq++
	fj := &fleetJob{
		job:     job,
		results: make([]JobResult, f.numPEs),
		errs:    make([]error, f.numPEs),
	}
	fj.wg.Add(f.numPEs)
	for _, ch := range f.chans {
		ch <- fj
	}
	fj.wg.Wait()
	run := stats.Run{PEs: make([]stats.PE, f.numPEs), Protocol: f.pools[0].cfg.Protocol.String()}
	var errs []error
	for rank := 0; rank < f.numPEs; rank++ {
		if err := fj.errs[rank]; err != nil {
			errs = append(errs, err)
			continue
		}
		run.PEs[rank] = fj.results[rank].Stats
		if e := fj.results[rank].Elapsed; e > run.Elapsed {
			run.Elapsed = e
		}
	}
	if len(errs) > 0 {
		return run, errors.Join(errs...)
	}
	return run, nil
}

// Resize sets how many PEs participate in subsequent jobs: surplus
// members drain out (highest ranks first) and parked ranks rejoin
// (lowest first), without tearing the fleet down. It serializes with Run
// on the fleet mutex, so transitions land between job epochs, where every
// queue is empty (a job ends at global quiescence) and both phases of
// each transition complete synchronously; the next job opens on the new
// membership, with each PE folding the change in via its scheduler's
// membership step. The world's size is the ceiling. The first Resize
// engages the world's elastic-membership layer.
func (f *Fleet) Resize(live int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("pool: fleet is closed")
	}
	if err := f.w.Err(); err != nil {
		return fmt.Errorf("pool: fleet world failed: %w", err)
	}
	if live < 1 || live > f.numPEs {
		return fmt.Errorf("pool: resize target %d outside [1, %d]", live, f.numPEs)
	}
	lv := f.w.Live()
	if !lv.Elastic() && live == f.numPEs {
		return nil // already at the fixed-membership full size
	}
	members := lv.Members(nil)
	for i := len(members) - 1; i >= 0 && len(members) > live; i-- {
		r := members[i]
		if err := lv.BeginDrain(r); err != nil {
			return err
		}
		if err := lv.CompleteDrain(r); err != nil {
			return err
		}
		members = members[:i]
	}
	for r := 0; r < f.numPEs && len(members) < live; r++ {
		if lv.State(r) != shmem.PeerParked {
			continue
		}
		if err := lv.BeginJoin(r); err != nil {
			return err
		}
		if err := lv.CompleteJoin(r); err != nil {
			return err
		}
		members = append(members, r)
	}
	if len(members) != live {
		return fmt.Errorf("pool: resize reached %d of %d members (dead ranks cannot rejoin)", len(members), live)
	}
	return nil
}

// Seq returns the number of jobs the fleet has accepted.
func (f *Fleet) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// World returns the fleet's world (for Attaches-style introspection).
func (f *Fleet) World() *shmem.World { return f.w }

// Pool returns rank's pool. Between jobs it is quiescent and safe to
// inspect; during a job it is owned by the PE goroutine.
func (f *Fleet) Pool(rank int) *Pool { return f.pools[rank] }

// closeChansLocked signals every PE to exit its job loop. Caller holds mu.
func (f *Fleet) closeChansLocked() {
	if f.closed {
		return
	}
	f.closed = true
	for _, ch := range f.chans {
		close(ch)
	}
}

// Close shuts the fleet down: PEs exit their job loops, the world's Run
// returns, and the transport closes. Waits for full unwind; returns the
// world's terminal error, if any. Safe to call more than once.
func (f *Fleet) Close() error {
	f.mu.Lock()
	f.closeChansLocked()
	f.mu.Unlock()
	<-f.runDone
	return f.runErr
}
