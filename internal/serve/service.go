package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/bpc"
	"sws/internal/obs"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/uts"
)

// Job lifecycle states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateExpired marks a job whose DeadlineMS lapsed while it was still
	// queued: admission accepted it, but the dispatcher rejected it before
	// it ever held a fleet epoch (the 504-style outcome).
	StateExpired = "expired"
)

// Admission-rejection reasons (the `reason` label on
// sws_serve_jobs_rejected_total and the JSON error body).
const (
	ReasonInflight    = "inflight-limit"
	ReasonTenantQuota = "tenant-quota"
	ReasonDeadline    = "deadline-expired"
)

// ErrClosed reports a submission against a service that is shutting
// down.
var ErrClosed = errors.New("serve: service is closed")

// ErrFleetFailed reports that a previous job poisoned the fleet (world
// failure, task error); the service accepts no further jobs.
var ErrFleetFailed = errors.New("serve: fleet failed")

// AdmissionError is the typed backpressure signal: the job was valid but
// the service could not run it. The HTTP layer maps ReasonInflight and
// ReasonTenantQuota to 429; ReasonDeadline (a queued job whose deadline
// lapsed before dispatch) surfaces as the job's terminal "expired" state,
// served with 504.
type AdmissionError struct {
	Reason string // ReasonInflight, ReasonTenantQuota, or ReasonDeadline
	Limit  int    // the bound that was hit (milliseconds for ReasonDeadline)
	Tenant string // set for tenant-quota rejections
}

func (e *AdmissionError) Error() string {
	switch {
	case e.Reason == ReasonDeadline:
		return fmt.Sprintf("serve: admission rejected (%s): deadline of %d ms lapsed before dispatch", e.Reason, e.Limit)
	case e.Tenant != "":
		return fmt.Sprintf("serve: admission rejected (%s): tenant %q has %d jobs queued", e.Reason, e.Tenant, e.Limit)
	}
	return fmt.Sprintf("serve: admission rejected (%s): %d jobs in flight", e.Reason, e.Limit)
}

// Options configures New.
type Options struct {
	// World configures the fleet's world. NumPEs defaults to 4; the
	// transport must be in-process (local, sim, shm — not Join).
	World shmem.Config
	// Pool is the per-PE pool configuration. PayloadCap is raised to fit
	// the largest workload payload (UTS nodes) if smaller.
	Pool pool.Config
	// MaxInflight bounds queued+running jobs across all tenants
	// (default 64). Submissions beyond it get AdmissionError
	// ReasonInflight.
	MaxInflight int
	// TenantQueue bounds queued jobs per tenant (default 16).
	// Submissions beyond it get AdmissionError ReasonTenantQuota.
	TenantQueue int
	// LivePEs, when in (0, World.NumPEs), starts the fleet with only that
	// many member PEs — the rest begin parked, held in reserve for Resize.
	// World.NumPEs is the resize ceiling.
	LivePEs int
	// MinPEs is the Resize floor (default 1): the gateway refuses to
	// shrink the fleet below it.
	MinPEs int
	// Gatherer, if non-nil, receives the sws_serve_* metrics family (and
	// is wired into the pool config so the fleet's pool metrics export
	// too).
	Gatherer *obs.Gatherer
}

// activeWork is the workload of the job currently holding the fleet
// epoch. Jobs execute one at a time, so a single pointer (set by the
// dispatcher around each fleet.Run) routes the fleet's delegating task
// functions.
type activeWork struct {
	uts   *uts.Workload
	bpc   *bpc.Workload
	graph *graphWork
}

// graphWork parameterizes the built-in uniform task graph: a
// breadth-ary tree with optional per-task spin.
type graphWork struct {
	breadth int
	depth   int
	spin    time.Duration
}

// tenantState is one tenant's FIFO queue plus counters.
type tenantState struct {
	queue     []*jobState
	submitted uint64
}

// retainTerminal is how many finished jobs stay answerable by id. A daemon
// runs jobs for its whole life, so terminal records must not accumulate:
// older ids answer "not found", exactly like ids that never existed.
const retainTerminal = 1024

// jobState is the service-side record of one job.
type jobState struct {
	id    string
	spec  JobSpec
	work  *activeWork // nil once terminal
	state string

	errMsg                       string
	deadline                     time.Time // zero = no deadline
	submitted, started, finished time.Time
	jobSeq                       uint64
	tasksExecuted, tasksStolen   uint64

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is the wire-format view of a job, returned by submissions
// and GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// JobSeq is the fleet epoch the job ran under (1-based; 0 while
	// queued).
	JobSeq        uint64 `json:"job_seq,omitempty"`
	TasksExecuted uint64 `json:"tasks_executed"`
	TasksStolen   uint64 `json:"tasks_stolen"`
	// Latency split: queue wait, fleet execution, and end-to-end.
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// Terminal reports whether the status is done, failed, or expired.
func (js JobStatus) Terminal() bool {
	return js.State == StateDone || js.State == StateFailed || js.State == StateExpired
}

// Service is the multi-tenant job layer over one warm fleet.
type Service struct {
	opt   Options
	fleet *pool.Fleet

	// Fleet-registered handles for the delegating task functions. Set
	// during Register (identical on every rank; atomic only for
	// race-free publication from concurrent PE warmups).
	utsH, prodH, consH, graphH atomic.Uint32

	// cur is the workload owning the current fleet epoch.
	cur atomic.Pointer[activeWork]

	// Latency histograms (lock-free; the metrics source snapshots them).
	queueHist, runHist, e2eHist obs.Hist

	mu   sync.Mutex
	cond *sync.Cond
	// jobs holds every queued and running job plus the last retainTerminal
	// terminal ones; retired is the ring of terminal ids in the order they
	// finished (see retireLocked).
	jobs     map[string]*jobState
	retired  [retainTerminal]string
	nRetired uint64
	tenants  map[string]*tenantState
	ring     []string // round-robin rotation of tenants with queued jobs
	inflight int
	nextID   uint64
	closed   bool
	fatalErr error

	rejected   map[string]uint64 // by reason
	completed  map[string]uint64 // by outcome (ok, failed)
	tasksTotal uint64

	dispatchDone chan struct{}
}

// New builds the world, warms the fleet (transports attach exactly
// once), and starts the dispatcher. The service owns the world until
// Close.
func New(opt Options) (*Service, error) {
	if opt.World.NumPEs == 0 {
		opt.World.NumPEs = 4
	}
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = 64
	}
	if opt.TenantQueue <= 0 {
		opt.TenantQueue = 16
	}
	if opt.Pool.PayloadCap < uts.PayloadSize {
		opt.Pool.PayloadCap = uts.PayloadSize
	}
	if opt.Pool.Metrics == nil {
		opt.Pool.Metrics = opt.Gatherer
	}
	s := &Service{
		opt:          opt,
		jobs:         make(map[string]*jobState),
		tenants:      make(map[string]*tenantState),
		rejected:     make(map[string]uint64),
		completed:    make(map[string]uint64),
		dispatchDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if opt.MinPEs <= 0 {
		opt.MinPEs = 1
	}
	if opt.MinPEs > opt.World.NumPEs {
		return nil, fmt.Errorf("serve: min PEs %d exceeds world size %d", opt.MinPEs, opt.World.NumPEs)
	}
	if opt.LivePEs < 0 || opt.LivePEs > opt.World.NumPEs {
		return nil, fmt.Errorf("serve: initial live PEs %d outside [0, %d]", opt.LivePEs, opt.World.NumPEs)
	}
	if opt.LivePEs > 0 && opt.LivePEs < opt.MinPEs {
		return nil, fmt.Errorf("serve: initial live PEs %d below floor %d", opt.LivePEs, opt.MinPEs)
	}
	s.opt = opt
	w, err := shmem.NewWorld(opt.World)
	if err != nil {
		return nil, err
	}
	if opt.LivePEs > 0 && opt.LivePEs < opt.World.NumPEs {
		// Engage elastic membership before the fleet warms: surplus ranks
		// park immediately and their pools idle at zero cost until Resize
		// brings them in.
		if err := w.SetInitialMembers(opt.LivePEs); err != nil {
			return nil, err
		}
	}
	f, err := pool.NewFleet(w, pool.FleetOptions{Pool: opt.Pool, Register: s.register})
	if err != nil {
		return nil, err
	}
	s.fleet = f
	if opt.Gatherer != nil {
		opt.Gatherer.Register(s.metricsSource)
	}
	go s.dispatcher()
	return s, nil
}

// register installs the delegating task functions on one PE's registry.
// Each delegate routes through the current-job pointer; job epochs are
// exclusive, so tasks of kind K only ever run while a kind-K job holds
// the epoch.
func (s *Service) register(rank int, reg *pool.Registry) error {
	h, err := reg.Register("serve.uts.node", func(tc *pool.TaskCtx, payload []byte) error {
		w := s.cur.Load()
		if w == nil || w.uts == nil {
			return errors.New("serve: uts task outside a uts job epoch")
		}
		return w.uts.RunNode(tc, payload)
	})
	if err != nil {
		return err
	}
	s.utsH.Store(uint32(h))
	h, err = reg.Register("serve.bpc.producer", func(tc *pool.TaskCtx, payload []byte) error {
		w := s.cur.Load()
		if w == nil || w.bpc == nil {
			return errors.New("serve: bpc producer outside a bpc job epoch")
		}
		return w.bpc.RunProducer(tc, payload)
	})
	if err != nil {
		return err
	}
	s.prodH.Store(uint32(h))
	h, err = reg.Register("serve.bpc.consumer", func(tc *pool.TaskCtx, payload []byte) error {
		w := s.cur.Load()
		if w == nil || w.bpc == nil {
			return errors.New("serve: bpc consumer outside a bpc job epoch")
		}
		return w.bpc.RunConsumer(tc, payload)
	})
	if err != nil {
		return err
	}
	s.consH.Store(uint32(h))
	h, err = reg.Register("serve.graph.node", s.runGraphNode)
	if err != nil {
		return err
	}
	s.graphH.Store(uint32(h))
	return nil
}

// runGraphNode executes one node of the built-in uniform task graph.
func (s *Service) runGraphNode(tc *pool.TaskCtx, payload []byte) error {
	w := s.cur.Load()
	if w == nil || w.graph == nil {
		return errors.New("serve: graph task outside a graph job epoch")
	}
	g := w.graph
	args, err := task.ParseArgs(payload, 1)
	if err != nil {
		return err
	}
	tc.Compute(g.spin)
	if args[0] == 0 {
		return nil
	}
	h, child := task.Handle(s.graphH.Load()), task.Args(args[0]-1)
	for i := 0; i < g.breadth; i++ {
		if err := tc.Spawn(h, child); err != nil {
			return err
		}
	}
	return nil
}

// Submit validates spec, applies admission control, and enqueues the
// job, returning its initial status. Backpressure surfaces as
// *AdmissionError; spec problems as plain validation errors.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	// Build workloads before admission: Job.Seed must not fail on a warm
	// fleet, so everything fallible happens here.
	work, err := spec.buildWork()
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	if s.fatalErr != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrFleetFailed, s.fatalErr)
	}
	if s.inflight >= s.opt.MaxInflight {
		s.rejected[ReasonInflight]++
		return JobStatus{}, &AdmissionError{Reason: ReasonInflight, Limit: s.opt.MaxInflight}
	}
	ten := s.tenants[spec.Tenant]
	if ten == nil {
		ten = &tenantState{}
		s.tenants[spec.Tenant] = ten
	}
	if len(ten.queue) >= s.opt.TenantQueue {
		s.rejected[ReasonTenantQuota]++
		return JobStatus{}, &AdmissionError{Reason: ReasonTenantQuota, Limit: s.opt.TenantQueue, Tenant: spec.Tenant}
	}
	s.nextID++
	js := &jobState{
		id:        fmt.Sprintf("job-%d", s.nextID),
		spec:      spec,
		work:      work,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if spec.DeadlineMS > 0 {
		js.deadline = js.submitted.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.jobs[js.id] = js
	if len(ten.queue) == 0 {
		s.ring = append(s.ring, spec.Tenant)
	}
	ten.queue = append(ten.queue, js)
	ten.submitted++
	s.inflight++
	s.cond.Signal()
	return js.statusLocked(), nil
}

// Status returns the current view of a job.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return js.statusLocked(), true
}

// Wait blocks until the job reaches a terminal state or timeout elapses
// (timeout <= 0 returns immediately), then reports the current status.
func (s *Service) Wait(id string, timeout time.Duration) (JobStatus, bool) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-js.done:
		case <-t.C:
		}
	}
	// Answer from the record in hand: a job that finished while we waited
	// may already have been evicted from the map.
	s.mu.Lock()
	defer s.mu.Unlock()
	return js.statusLocked(), true
}

// retireLocked is the one terminal transition: it releases the job's
// workload, wakes its waiters and files the record in the retention ring,
// evicting the record that finished retainTerminal jobs ago. Caller holds
// s.mu and has set the terminal state.
func (s *Service) retireLocked(js *jobState) {
	js.work = nil
	close(js.done)
	slot := &s.retired[s.nRetired%retainTerminal]
	delete(s.jobs, *slot)
	*slot = js.id
	s.nRetired++
}

// statusLocked snapshots the job under s.mu.
func (js *jobState) statusLocked() JobStatus {
	st := JobStatus{
		ID:            js.id,
		Tenant:        js.spec.Tenant,
		Kind:          js.spec.Kind,
		State:         js.state,
		Error:         js.errMsg,
		JobSeq:        js.jobSeq,
		TasksExecuted: js.tasksExecuted,
		TasksStolen:   js.tasksStolen,
	}
	switch js.state {
	case StateRunning:
		st.QueueSeconds = js.started.Sub(js.submitted).Seconds()
	case StateDone, StateFailed, StateExpired:
		if !js.started.IsZero() {
			st.QueueSeconds = js.started.Sub(js.submitted).Seconds()
			st.RunSeconds = js.finished.Sub(js.started).Seconds()
		}
		st.TotalSeconds = js.finished.Sub(js.submitted).Seconds()
	}
	return st
}

// dispatcher drains the tenant queues one job at a time: each iteration
// takes the head job of the next tenant in the round-robin ring and runs
// it as one fleet epoch.
func (s *Service) dispatcher() {
	defer close(s.dispatchDone)
	for {
		js := s.next()
		if js == nil {
			return
		}
		s.runJob(js)
	}
}

// next blocks for the next runnable job. It returns nil only when the
// service is closed (or the fleet failed) and every queue is drained, so
// Close gracefully finishes accepted work.
func (s *Service) next() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.ring) > 0 {
			t := s.ring[0]
			ten := s.tenants[t]
			js := ten.queue[0]
			ten.queue = ten.queue[1:]
			if len(ten.queue) == 0 {
				s.ring = s.ring[1:]
			} else {
				// Rotate the tenant to the back: one job per turn.
				s.ring = append(s.ring[1:], t)
			}
			now := time.Now()
			if !js.deadline.IsZero() && now.After(js.deadline) {
				// The deadline lapsed while the job waited in the queue:
				// reject it at dispatch instead of running stale work.
				// (Cooperative cancellation of already-running jobs is a
				// ROADMAP follow-on.)
				s.expireLocked(js, now)
				continue
			}
			js.state = StateRunning
			js.started = now
			return js
		}
		if s.closed || s.fatalErr != nil {
			return nil
		}
		s.cond.Wait()
	}
}

// expireLocked finalizes a queued job whose deadline lapsed before
// dispatch. Caller holds s.mu.
func (s *Service) expireLocked(js *jobState, now time.Time) {
	adm := &AdmissionError{Reason: ReasonDeadline, Limit: js.spec.DeadlineMS}
	js.state = StateExpired
	js.errMsg = adm.Error()
	js.finished = now
	s.inflight--
	s.rejected[ReasonDeadline]++
	s.completed["expired"]++
	s.queueHist.Record(now.Sub(js.submitted))
	s.retireLocked(js)
}

// runJob executes one job as a fleet epoch and finalizes its record.
func (s *Service) runJob(js *jobState) {
	w := js.work
	// Retarget the per-job workload at the fleet's handles so its spawns
	// and seeds route through the delegating task functions.
	switch {
	case w.uts != nil:
		w.uts.Bind(task.Handle(s.utsH.Load()))
	case w.bpc != nil:
		w.bpc.Bind(task.Handle(s.prodH.Load()), task.Handle(s.consH.Load()))
	}
	s.cur.Store(w)
	run, err := s.fleet.Run(pool.Job{Seed: s.seedFor(w)})
	// The epoch ended with global quiescence: no task of this job can
	// still be running when the pointer clears.
	s.cur.Store(nil)
	seq := s.fleet.Seq()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	js.finished = now
	js.jobSeq = seq
	tot := run.Total()
	js.tasksExecuted = tot.TasksExecuted
	js.tasksStolen = tot.TasksStolen
	s.inflight--
	s.queueHist.Record(js.started.Sub(js.submitted))
	s.runHist.Record(js.finished.Sub(js.started))
	s.e2eHist.Record(js.finished.Sub(js.submitted))
	if err != nil {
		js.state = StateFailed
		js.errMsg = err.Error()
		s.completed["failed"]++
		// A job-level error poisons the fleet (the pools may be
		// mid-epoch): fail everything queued and stop accepting.
		s.fatalErr = err
		s.failQueuedLocked(err)
	} else {
		js.state = StateDone
		s.completed["ok"]++
		s.tasksTotal += tot.TasksExecuted
	}
	s.retireLocked(js)
}

// seedFor returns the Job.Seed injecting w's root task on rank 0.
func (s *Service) seedFor(w *activeWork) func(*pool.Pool, int) error {
	return func(p *pool.Pool, rank int) error {
		switch {
		case w.uts != nil:
			return w.uts.Seed(p, rank)
		case w.bpc != nil:
			return w.bpc.Seed(p, rank)
		case w.graph != nil:
			if rank != 0 {
				return nil
			}
			return p.Add(task.Handle(s.graphH.Load()), task.Args(uint64(w.graph.depth)))
		}
		return errors.New("serve: job with no workload")
	}
}

// failQueuedLocked terminates every queued job after a fleet failure.
func (s *Service) failQueuedLocked(err error) {
	for _, t := range s.ring {
		ten := s.tenants[t]
		for _, js := range ten.queue {
			js.state = StateFailed
			js.errMsg = fmt.Sprintf("fleet failed before this job ran: %v", err)
			js.finished = time.Now()
			s.inflight--
			s.completed["failed"]++
			s.retireLocked(js)
		}
		ten.queue = nil
	}
	s.ring = nil
	s.cond.Broadcast()
}

// Close stops admission, drains the queued jobs (each still runs to
// completion), and tears the fleet down. Safe to call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.dispatchDone
	return s.fleet.Close()
}

// Fleet exposes the underlying warm fleet (tests assert on
// World().Attaches() and Seq()).
func (s *Service) Fleet() *pool.Fleet { return s.fleet }

// FleetStatus is the wire-format membership view returned by the resize
// endpoint and GET /v1/fleet.
type FleetStatus struct {
	// Epoch is the membership epoch (0 until the elastic layer engages).
	Epoch uint64 `json:"epoch"`
	// MaxPEs is the world size — the resize ceiling.
	MaxPEs int `json:"max_pes"`
	// MinPEs is the resize floor.
	MinPEs   int `json:"min_pes"`
	Live     int `json:"live"`
	Joining  int `json:"joining"`
	Draining int `json:"draining"`
	Parked   int `json:"parked"`
}

// FleetStatus snapshots the fleet's membership.
func (s *Service) FleetStatus() FleetStatus {
	lv := s.fleet.World().Live()
	live, joining, draining, parked := lv.MembershipCounts()
	return FleetStatus{
		Epoch:    lv.MemberEpoch(),
		MaxPEs:   s.fleet.World().NumPEs(),
		MinPEs:   s.opt.MinPEs,
		Live:     live,
		Joining:  joining,
		Draining: draining,
		Parked:   parked,
	}
}

// Resize grows or shrinks the warm fleet to live member PEs without
// tearing it down: surplus members drain loss-free and park, parked
// ranks rejoin. It serializes with job epochs (transitions land between
// jobs), bounded by [MinPEs, World.NumPEs].
func (s *Service) Resize(live int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.fatalErr; err != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrFleetFailed, err)
	}
	min, max := s.opt.MinPEs, s.fleet.World().NumPEs()
	s.mu.Unlock()
	if live < min || live > max {
		return fmt.Errorf("serve: resize target %d outside [%d, %d]", live, min, max)
	}
	// Outside s.mu: Fleet.Resize blocks until the current job epoch ends,
	// and runJob needs s.mu to finalize it.
	return s.fleet.Resize(live)
}

// The families the job service exports: its own, and the world's
// elastic-membership view.
var (
	mSubmitted = obs.NewCounter("sws_serve_jobs_submitted_total", "jobs", "tenant",
		"Jobs accepted by admission control, per tenant.")
	mQueueDepth = obs.NewGauge("sws_serve_queue_depth_jobs", "jobs", "tenant",
		"Jobs queued per tenant.")
	mCompleted = obs.NewCounter("sws_serve_jobs_completed_total", "jobs", "outcome",
		"Jobs finished, by outcome (ok, failed, expired).")
	mRejected = obs.NewCounter("sws_serve_jobs_rejected_total", "jobs", "reason",
		"Jobs rejected by admission control or queue deadline, by reason (inflight-limit, tenant-quota, deadline-expired).")
	mInflight = obs.NewGauge("sws_serve_inflight_jobs", "jobs", "",
		"Jobs queued or running in the job service.")
	mJobTasks = obs.NewCounter("sws_serve_job_tasks_total", "tasks", "",
		"Tasks executed by completed jobs.")
	mAttaches = obs.NewCounter("sws_serve_fleet_attaches_total", "attachments", "",
		"Transport attachments over the job service's fleet lifetime (stays at the PE count: warm start).")
	mJobLatency = obs.NewQuantiles("sws_serve_job_latency_seconds", "stage",
		"Per-job latency quantiles (p50/p95/p99) by stage (queue, run, e2e).",
		"Per-job latency sample count by stage.")
	mMemberEpoch = obs.NewGauge("sws_membership_epoch", "dimensionless (index)", "",
		"Membership epoch; bumps once per join/drain transition phase, 0 while membership is fixed.")
	mMemberPEs = obs.NewGauge("sws_membership_pes", "pes", "state",
		"PEs by membership state (live, joining, draining, parked).")
	mMemberJoins = obs.NewCounter("sws_membership_joins_total", "joins", "",
		"Completed PE joins over the world's lifetime.")
	mMemberDrains = obs.NewCounter("sws_membership_drains_total", "drains", "",
		"Completed PE drains over the world's lifetime.")
	mDrainSeconds = obs.NewQuantiles("sws_membership_drain_seconds", "",
		"Drain duration quantiles (BeginDrain to parked).",
		"Completed-drain duration sample count.")
)

// metricsSource emits the sws_serve_* family. Registered on the
// Gatherer at New; reads only snapshots taken under s.mu plus lock-free
// histograms, so it is safe concurrently with jobs in flight.
func (s *Service) metricsSource(e *obs.Emitter) {
	type tenantSnap struct {
		name      string
		submitted uint64
		depth     int
	}
	s.mu.Lock()
	tenants := make([]tenantSnap, 0, len(s.tenants))
	for name, ten := range s.tenants {
		tenants = append(tenants, tenantSnap{name, ten.submitted, len(ten.queue)})
	}
	rejected := make(map[string]uint64, len(s.rejected))
	for r, v := range s.rejected {
		rejected[r] = v
	}
	completed := make(map[string]uint64, len(s.completed))
	for o, v := range s.completed {
		completed[o] = v
	}
	inflight := s.inflight
	tasks := s.tasksTotal
	s.mu.Unlock()

	for _, t := range tenants {
		e.Counter(mSubmitted, float64(t.submitted), obs.L("tenant", t.name))
		e.Gauge(mQueueDepth, float64(t.depth), obs.L("tenant", t.name))
	}
	for _, o := range []string{"ok", "failed", "expired"} {
		e.Counter(mCompleted, float64(completed[o]), obs.L("outcome", o))
	}
	for _, r := range []string{ReasonInflight, ReasonTenantQuota, ReasonDeadline} {
		e.Counter(mRejected, float64(rejected[r]), obs.L("reason", r))
	}
	e.Gauge(mInflight, float64(inflight))
	e.Counter(mJobTasks, float64(tasks))
	e.Counter(mAttaches, float64(s.fleet.World().Attaches()))
	e.Quantiles(mJobLatency, s.queueHist.Snapshot(), obs.L("stage", "queue"))
	e.Quantiles(mJobLatency, s.runHist.Snapshot(), obs.L("stage", "run"))
	e.Quantiles(mJobLatency, s.e2eHist.Snapshot(), obs.L("stage", "e2e"))

	// Elastic-membership family: zero-valued while the fleet runs at fixed
	// membership, live once Resize (or LivePEs) engages the elastic layer.
	lv := s.fleet.World().Live()
	live, joining, draining, parked := lv.MembershipCounts()
	e.Gauge(mMemberEpoch, float64(lv.MemberEpoch()))
	for _, st := range []struct {
		state string
		n     int
	}{{"live", live}, {"joining", joining}, {"draining", draining}, {"parked", parked}} {
		e.Gauge(mMemberPEs, float64(st.n), obs.L("state", st.state))
	}
	e.Counter(mMemberJoins, float64(lv.Joins()))
	e.Counter(mMemberDrains, float64(lv.Drains()))
	e.Quantiles(mDrainSeconds, lv.DrainDurations())
}
