// Package pool implements the Scioto-style task-pool runtime (§2.1 of the
// paper) on top of the work-stealing queues: each PE runs tasks from its
// own split queue in LIFO order, exposes work to thieves via release,
// reclaims it via acquire, and — when out of local work — steals from
// random victims until distributed termination detection declares the
// global pool exhausted.
//
// The pool is protocol-agnostic: Config.Protocol selects the SWS queue
// (internal/core, the paper's contribution) or the SDC baseline
// (internal/sdc), so benchmarks compare the two communication structures
// under an otherwise identical runtime, as the paper's evaluation does.
//
// Accounting follows §5.3's definitions: time spent in successful steal
// operations is steal time; time spent in failed attempts is search time.
package pool

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"sws/internal/core"
	"sws/internal/obs"
	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/term"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// Protocol selects the work-stealing queue implementation.
type Protocol int

const (
	// SWS is the paper's structured-atomic protocol (default).
	SWS Protocol = iota
	// SDC is the Scioto baseline.
	SDC
	// SWSFused is SWS with single-round-trip steals over the
	// programmable-NIC emulation (the Portals-offload ablation).
	SWSFused
)

func (p Protocol) String() string {
	switch p {
	case SWS:
		return "sws"
	case SDC:
		return "sdc"
	case SWSFused:
		return "sws-fused"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol converts a command-line name to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "sws", "SWS":
		return SWS, nil
	case "sdc", "SDC":
		return SDC, nil
	case "sws-fused", "fused", "xws":
		return SWSFused, nil
	default:
		return 0, fmt.Errorf("pool: unknown protocol %q (want sws, sdc, or sws-fused)", s)
	}
}

// Config parameterizes a pool. The zero value is a usable SWS pool with
// epochs and damping enabled.
type Config struct {
	// Protocol selects SWS (default) or SDC.
	Protocol Protocol
	// QueueCapacity is the slot count of each PE's split queue, the part
	// thieves can reach. Default 8192. A spawn that finds it full goes to
	// the owner's private deque instead (Stats.TasksSpilled counts them)
	// and is shared once the queue has room again, so the capacity bounds
	// what one Release can expose, not how many tasks a PE may hold.
	QueueCapacity int
	// PayloadCap is the per-task payload capacity in bytes. Default 24.
	PayloadCap int
	// NoEpochs disables completion epochs (SWS only; stealval format V1).
	NoEpochs bool
	// NoDamping disables steal damping (SWS only).
	NoDamping bool
	// Seed makes victim selection reproducible; each worker goroutine
	// derives its own independent stream from Seed, the PE's rank, and
	// its worker id.
	Seed int64
	// Workers is the number of worker goroutines this PE runs. Worker 0,
	// the owner, always exists: it runs the scheduler loop and alone drives
	// the inter-PE SWS protocol. The default 1 is the paper's
	// single-threaded PE; each worker beyond the first is an executor that
	// only runs tasks, out of a private deque of its own, and trades work
	// with the PE's other workers through an intra-PE ring
	// (internal/ldeque). Executors require a transport whose PEs may
	// issue operations from multiple goroutines (local, tcp, shm — not
	// sim).
	Workers int
	// MailboxSlots sizes the remote-spawn inbox ring. Default 256.
	MailboxSlots int
	// Trace, if non-nil, becomes the PEs' event rings for the run (see
	// internal/trace), in place of the world's small flight rings: besides
	// what those always journal it takes every task execution (each body is
	// then timed), every scheduling step and every blocking comm op. Nil
	// leaves the flight rings in place.
	Trace *trace.Set
	// Metrics, if non-nil, receives a per-PE metrics source exposing live
	// counters, queue depths, epoch numbers, and latency quantiles for
	// the obs HTTP endpoint.
	Metrics *obs.Gatherer
}

func (c *Config) setDefaults() {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = wsq.DefaultCapacity
	}
	if c.PayloadCap == 0 {
		c.PayloadCap = wsq.DefaultPayloadCap
	}
	if c.MailboxSlots == 0 {
		c.MailboxSlots = defaultMailboxSlots
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
}

// Func is a task body. It may spawn subtasks through the TaskCtx; per the
// Scioto model it must run to completion without blocking on other tasks.
// The payload is the runtime's buffer, the body's alone for the duration of
// the call: a body may overwrite it (Spawn copies what it is given, so it
// can serve as the encode buffer for the task's children), and one that
// keeps its input past its return copies it.
type Func func(tc *TaskCtx, payload []byte) error

// Registry maps task handles to functions. Registration order must be
// identical on every PE (SPMD), which makes handles portable.
type Registry struct {
	funcs []Func
	names map[string]task.Handle
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]task.Handle)}
}

// Register adds a named task function and returns its portable handle.
func (r *Registry) Register(name string, f Func) (task.Handle, error) {
	if f == nil {
		return 0, fmt.Errorf("pool: nil task function %q", name)
	}
	if _, dup := r.names[name]; dup {
		return 0, fmt.Errorf("pool: task %q already registered", name)
	}
	h := task.Handle(len(r.funcs))
	r.funcs = append(r.funcs, f)
	r.names[name] = h
	return h, nil
}

// MustRegister is Register for setup code where duplicates are bugs.
func (r *Registry) MustRegister(name string, f Func) task.Handle {
	h, err := r.Register(name, f)
	if err != nil {
		panic(err)
	}
	return h
}

// Lookup returns the handle for a registered name.
func (r *Registry) Lookup(name string) (task.Handle, bool) {
	h, ok := r.names[name]
	return h, ok
}

func (r *Registry) fn(h task.Handle) (Func, error) {
	if int(h) >= len(r.funcs) {
		return nil, fmt.Errorf("pool: task handle %d not registered (have %d)", h, len(r.funcs))
	}
	return r.funcs[h], nil
}

// Pool is one PE's participation in the global task pool.
type Pool struct {
	ctx  *shmem.Ctx
	cfg  Config
	reg  *Registry
	det  *term.Detector
	mbox *mailbox

	// q is the protocol layer. Its owner ops are plain calls: guard holds
	// the owner-serialization contract for a whole job (RunJob) or one
	// seeding spawn (Add, SpawnOn), not per op, so the task path pays
	// nothing for it. Executors reach owner state only through spawnOn's
	// worker check.
	q     wsq.Queue
	guard wsq.OwnerGuard

	// vic picks steal targets for the search layer.
	vic *victimSelector
	// exec holds the PE's workers — worker 0, the owner, plus any
	// executors — and the intra-PE ring they share.
	exec *execLayer

	// bk holds the counters the owner alone writes; Stats adds the task
	// counts and per-worker rows, which live in the workers' atomics.
	bk book
	// tr is the PE's event ring when Config.Trace supplied it, else nil:
	// the events only a traced run records (ctx.FlightRecord has the rest).
	tr      *trace.Flight
	elapsed time.Duration

	// jobSeq numbers the jobs this pool has run (1-based during a job, 0
	// before the first), moved by RunJob between jobs only.
	jobSeq uint64

	// Elastic-membership state (membership.go): memberEpoch is the last
	// epoch folded into the victim sets; parked diverts the loop into
	// stepParked; the slices are reseat and forwarding scratch; drainRR
	// rotates forwarding targets.
	memberEpoch uint64
	parked      bool
	wasMember   []bool
	nowMember   []bool
	memberBuf   []int
	fwdBuf      []int
	drainRR     int

	// lat holds this PE's scheduling-op latency histograms (always
	// recorded; each record is one atomic add).
	lat poolLat
	// coreQ is the queue as *core.Queue when the protocol is SWS-family,
	// for epoch introspection; nil under SDC.
	coreQ *core.Queue
	// prevProbes tracks termination-detection passes for trace events.
	prevProbes uint64
}

// poolLat groups the pool-level latency histograms: task execution,
// successful steals, failed searches and shared-queue transfers.
type poolLat struct {
	exec, steal, search, acquire, release obs.Hist
	// drain times drainOut: how long a voluntary departure took to flush
	// this PE's inventory into the remaining members.
	drain obs.Hist
}

// byName is the one list of the histograms and the op names Stats and the
// metrics endpoint report them under.
func (l *poolLat) byName() map[string]*obs.Hist {
	return map[string]*obs.Hist{
		"exec": &l.exec, "steal": &l.steal, "search": &l.search, "acquire": &l.acquire,
		"release": &l.release, "drain": &l.drain,
	}
}

// TaskCtx is the handle passed to task functions. Each worker has its own,
// so a task's spawns are counted against — and routed by — the worker that
// ran it: the owner pushes into the protocol queue, an executor into its
// private deque.
type TaskCtx struct {
	p *Pool
	w *workerState
}

// Rank returns the executing PE's rank.
func (tc *TaskCtx) Rank() int { return tc.p.ctx.Rank() }

// Worker returns the index of the executing worker within its PE (0 is the
// owner), for task bodies that keep per-worker state.
func (tc *TaskCtx) Worker() int { return tc.w.id }

// JobSeq returns the sequence number of the job this task runs under
// (1-based). Tasks of job N never observe any other value: the sequence
// advances only between jobs, outside any task's lifetime.
func (tc *TaskCtx) JobSeq() uint64 { return tc.p.jobSeq }

// NumPEs returns the world size.
func (tc *TaskCtx) NumPEs() int { return tc.p.ctx.NumPEs() }

// Shmem exposes the PGAS context so tasks can use global memory, as the
// Scioto model allows (tasks may communicate through the global address
// space but may not wait on concurrent tasks).
func (tc *TaskCtx) Shmem() *shmem.Ctx { return tc.p.ctx }

// Compute simulates d of task computation — the one wait every workload's
// simulated work goes through (shmem.Ctx.Compute): it holds the core like
// real compute unless the process hosts more PE and executor goroutines than
// GOMAXPROCS, where it yields on every iteration so PEs time-share the cores.
func (tc *TaskCtx) Compute(d time.Duration) { tc.p.ctx.Compute(d) }

// Spawn enqueues a new task on the executing PE's queue.
func (tc *TaskCtx) Spawn(h task.Handle, payload []byte) error {
	return tc.p.spawn(tc.w, task.Desc{Handle: h, Payload: payload})
}

// SpawnOn enqueues a new task on PE pe's queue via its remote-spawn
// inbox. This costs communication (§3 of the paper: remote spawning is
// possible "although with more overhead"); prefer Spawn and let stealing
// move the work unless placement genuinely matters. The PE batches a run
// of remote spawns to one target and sends it within 64 of its scheduler
// iterations; an error from a later send fails the run.
func (tc *TaskCtx) SpawnOn(pe int, h task.Handle, payload []byte) error {
	return tc.p.spawnOn(tc.w, pe, task.Desc{Handle: h, Payload: payload})
}

// New collectively constructs the pool; every PE calls it with an
// identical registry and configuration.
func New(ctx *shmem.Ctx, reg *Registry, cfg Config) (*Pool, error) {
	cfg.setDefaults()
	if reg == nil || len(reg.funcs) == 0 {
		return nil, errors.New("pool: registry is empty")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("pool: Workers %d < 1", cfg.Workers)
	}
	p := &Pool{
		ctx: ctx,
		cfg: cfg,
		reg: reg,
	}
	p.tr = cfg.Trace.PE(ctx.Rank())
	ctx.AttachTrace(p.tr)
	if cfg.Workers > 1 && ctx.Lockstep() {
		return nil, fmt.Errorf("pool: Workers=%d: the lockstep sim runs one goroutine per PE; multi-worker PEs need a wall-clock transport", cfg.Workers)
	}
	codec, err := task.NewCodec(cfg.PayloadCap)
	if err != nil {
		return nil, err
	}
	p.exec = newExecLayer(p, cfg.Workers, codec)
	// Worker 0's random stream drives victim selection.
	p.vic = newVictimSelector(ctx.Rank(), ctx.NumPEs(), p.exec.workers[0].rng)
	switch cfg.Protocol {
	case SWS, SWSFused:
		p.q, err = core.NewQueue(ctx, core.Options{
			Capacity:   cfg.QueueCapacity,
			PayloadCap: cfg.PayloadCap,
			Epochs:     !cfg.NoEpochs,
			Damping:    !cfg.NoDamping,
			Fused:      cfg.Protocol == SWSFused,
		})
	case SDC:
		p.q, err = sdc.NewQueue(ctx, sdc.Options{
			Capacity:   cfg.QueueCapacity,
			PayloadCap: cfg.PayloadCap,
		})
	default:
		err = fmt.Errorf("pool: unknown protocol %v", cfg.Protocol)
	}
	if err != nil {
		return nil, err
	}
	if p.det, err = term.New(ctx); err != nil {
		return nil, err
	}
	if p.mbox, err = newMailbox(ctx, codec, cfg.MailboxSlots); err != nil {
		return nil, err
	}
	p.mbox.ownDrain, p.mbox.hold = p.stepDrainInbox, p.det.Hold
	p.coreQ, _ = p.q.(*core.Queue)
	if cfg.Metrics != nil {
		cfg.Metrics.Register(p.metricsSource())
	}
	return p, nil
}

// Queue exposes the underlying work-stealing queue (for diagnostics and
// microbenchmarks).
func (p *Pool) Queue() wsq.Queue { return p.q }

// Shmem exposes the PGAS context, for collective allocations and global
// address space use around a run.
func (p *Pool) Shmem() *shmem.Ctx { return p.ctx }

// Add seeds a task into this PE's queue before Run. Like every Pool method
// it belongs to the PE's own goroutine — it is the owner worker's spawn —
// and it panics if a job is running: task functions spawn through their
// TaskCtx.
func (p *Pool) Add(h task.Handle, payload []byte) error {
	p.guard.Enter(wsq.OwnerAdd)
	defer p.guard.Exit()
	return p.spawn(p.exec.workers[0], task.Desc{Handle: h, Payload: payload})
}

// SpawnOn delivers a task into PE pe's remote-spawn inbox, from seeding
// code on the PE's own goroutine before Run (task functions use
// TaskCtx.SpawnOn); like Add it panics if a job is running. Unlike a
// task's SpawnOn, which the owner batches, it sends before it returns.
func (p *Pool) SpawnOn(pe int, h task.Handle, payload []byte) error {
	p.guard.Enter(wsq.OwnerSpawnOn)
	defer p.guard.Exit()
	if err := p.spawnOn(p.exec.workers[0], pe, task.Desc{Handle: h, Payload: payload}); err != nil {
		return err
	}
	return p.flushRemote()
}

// recordEpochFlip notes a new completion epoch in the event ring, stamped at
// the release or acquire's end read, and the epoch gauge (SWS-family queues
// only; SDC has no epochs).
func (p *Pool) recordEpochFlip(at time.Time, moved int64) {
	if p.coreQ == nil {
		return
	}
	epoch := int64(p.coreQ.Epoch())
	p.ctx.FlightRecordAt(at, trace.EpochFlip, epoch, moved, 0)
	p.bk.epoch.Store(epoch)
}

// push is the owner's one way into its private part. A task goes into the
// split queue's local portion unless that is full; then it goes into the
// owner's private deque, and so does every later push while the deque holds
// anything: its tasks are newer than the queue's, so popOwned serves them
// first and the owner's order stays LIFO. refill moves them back. Both
// protocol queues copy d into a slot and keep nothing of it, and push calls
// them directly so escape analysis sees that: a spawned payload stays on its
// caller's stack. Any other wsq.Queue (a test's wrapper) is called through
// the interface, which escapes its argument, so it gets a copy.
func (p *Pool) push(d task.Desc) error {
	dq := p.exec.workers[0].dq
	if dq.n == 0 {
		var err error
		switch q := p.q.(type) {
		case *core.Queue:
			err = q.Push(d)
		case *sdc.Queue:
			err = q.Push(d)
		default:
			err = q.Push(task.Desc{Handle: d.Handle, Payload: bytes.Clone(d.Payload)})
		}
		if err == nil || !isFull(err) {
			return err
		}
	}
	p.bk.tasksSpilled.Add(1)
	return dq.push(d)
}

// isFull reports whether a push failed only because the queue is full.
func isFull(err error) bool { return errors.Is(err, wsq.ErrFull) }

// popOwned pops the owner's newest task: its private deque's, which are
// newer than anything in the split queue, then the local portion's.
func (p *Pool) popOwned() (task.Desc, bool, error) {
	if dq := p.exec.workers[0].dq; dq.n > 0 {
		return dq.pop()
	}
	return p.q.Pop()
}

// ownedCount is the number of tasks only the owner can reach: its private
// deque and the split queue's local portion.
func (p *Pool) ownedCount() int { return p.exec.workers[0].dq.n + p.q.LocalCount() }

// refill moves the private deque's oldest tasks into the split queue while
// it has room, where Release can share them. They are newer than all of
// the queue's tasks, so the owner's LIFO order holds.
func (p *Pool) refill() error {
	dq := p.exec.workers[0].dq
	for dq.n > 0 {
		d, err := dq.oldest()
		if err != nil {
			return err
		}
		if err := p.q.Push(d); err != nil {
			if isFull(err) {
				return nil
			}
			return err
		}
		dq.dropOldest()
	}
	return nil
}

// Stats returns this PE's counters, including the per-op latency
// distributions (pool-level scheduling ops plus the shmem per-op
// histograms under "shmem/" keys). Everything is cumulative over the
// pool's lifetime — across every job a warm pool has run. RunJob's
// per-job figures are deltas of the counters alone (stats.PE.Delta of two
// counter snapshots): the histograms are lifetime-cumulative only, read
// here and by the metrics endpoint. Valid between jobs.
func (p *Pool) Stats() stats.PE {
	st := p.counters()
	st.Lat = make(map[string]obs.HistSnap)
	for name, h := range p.lat.byName() {
		if s := h.Snapshot(); !s.Empty() {
			st.Lat[name] = s
		}
	}
	cs := p.ctx.Counters()
	for _, op := range shmem.Ops() {
		if s := cs.Latency(op); !s.Empty() {
			st.Lat["shmem/"+op.String()+"/remote"] = s
		}
	}
	return st
}

// counters is Stats without the latency histograms: every counter, time
// and worker row, and a nil Lat. RunJob takes a job's two snapshots with
// it, so a job pays for its counters and not for copying histograms.
func (p *Pool) counters() stats.PE {
	bk := &p.bk
	st := stats.PE{
		StealsSuccessful: bk.stealsOK.Load(), StealsEmpty: bk.stealsEmpty.Load(),
		StealsDisabled: bk.stealsDisabled.Load(), TasksStolen: bk.tasksStolen.Load(),
		StealTransportErrs: bk.stealTransportErrs.Load(), TasksForwarded: bk.tasksForwarded.Load(),
		MemberDrains: bk.memberDrains.Load(), MemberJoins: bk.memberJoins.Load(),
		Acquires: bk.acquires.Load(), Releases: bk.releases.Load(),
		RemoteSpawnsSent: bk.remoteSent.Load(), RemoteSpawnsRecv: bk.remoteRecv.Load(),
		StealTime: time.Duration(bk.stealTime.Load()), SearchTime: time.Duration(bk.searchTime.Load()),
		TasksSpilled: bk.tasksSpilled.Load(), TasksLost: p.det.Lost, Degraded: p.det.Degraded,
	}
	// Every steal call that reached its victim ended in one of the three.
	st.StealsAttempted = st.StealsSuccessful + st.StealsEmpty + st.StealsDisabled
	// Task counts live in the workers' own counters: fold them into the
	// PE totals and one row per worker (worker 0, the owner, also carries
	// the steal and search time — it does all inter-PE work). Between jobs
	// the plain counts are exact, the owner's included, published or not.
	st.Workers = make([]stats.Worker, len(p.exec.workers))
	for i, ws := range p.exec.workers {
		w := stats.Worker{
			PE: p.ctx.Rank(), ID: ws.id,
			TasksExecuted: ws.nExecuted, TasksSpawned: ws.nSpawned,
			IdleIters: ws.idleIters.Load(), FromRing: ws.fromRing, ExecTime: ws.execTime,
		}
		st.TasksExecuted += w.TasksExecuted
		st.TasksSpawned += w.TasksSpawned
		st.ExecTime += w.ExecTime
		st.Workers[i] = w
	}
	st.Workers[0].StealTime, st.Workers[0].SearchTime = st.StealTime, st.SearchTime
	st.IdleIters = st.Workers[0].IdleIters
	st.DeadPEs = uint64(p.ctx.Liveness().DeadCount())
	st.Degraded = st.Degraded || st.DeadPEs > 0
	if p.coreQ != nil {
		st.TasksWrittenOff = p.coreQ.Stats().TasksWrittenOff
	}
	return st
}

// Elapsed returns this PE's time on Ctx.Now inside the most recent job
// (between its barriers).
func (p *Pool) Elapsed() time.Duration { return p.elapsed }

// JobSeq returns the number of jobs this pool has started (equivalently:
// the current job's 1-based sequence number while one is running).
func (p *Pool) JobSeq() uint64 { return p.jobSeq }
