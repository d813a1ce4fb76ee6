// Package term implements distributed termination detection for the task
// pool.
//
// The pool's execution model (§2.1 of the paper) requires detecting when
// every task in the global pool has been consumed: "processes continue to
// search for work until it is globally exhausted". This package uses the
// classic double-counting quiescence scheme over one-sided communication,
// consistent with the PGAS substrate:
//
//   - Every PE maintains monotonic (spawned, executed) counters in its
//     reserved line (shmem.WordSpawned, shmem.WordExecuted), moved with
//     local atomics when it publishes: not per task, but where a task it
//     counted only locally could be seen or run by someone else, and
//     before it probes (see Publish).
//   - When idle, the wave leader (the lowest rank neither dead nor
//     exited) reads every live PE's reserved line with one one-sided get
//     each. Two consecutive identical passes with spawned == executed
//     imply global quiescence: any existing task keeps executed < spawned
//     (tasks are counted spawned at creation and executed only after
//     running, so in-flight stolen tasks hold the sums apart), and any
//     activity between the two passes perturbs a monotonic counter, or a
//     membership transition the PE's state word, breaking the equality of
//     the passes.
//   - The leader then broadcasts a termination flag into every other live
//     PE's heap with non-blocking stores, then stores its own; every PE
//     adopts the verdict from its own flag. The detector keeps no copy of
//     what a line says: it reads lines, and deaths from the liveness view.
//
// A Detector is built once per pool (New clears its words, so every PE
// builds one before a barrier) and serves a sequence of jobs: counters are
// monotonic across the fleet's lifetime — at every job boundary the global
// spawned and executed sums are equal, so quiescence detection for job N+1
// is unaffected by the totals accumulated through job N — and the per-job
// verdict state (flag word, pass memory) is reset by StartJob between
// jobs.
package term

import (
	"errors"
	"slices"
	"sync/atomic"

	"sws/internal/shmem"
)

// Detector is one PE's handle on the termination protocol.
type Detector struct {
	ctx *shmem.Ctx

	// own is this PE's reserved line, as memory: its counts and verdict
	// live there alone, and a Publish is one atomic add per counter it
	// moves (shmem.Ctx.OwnWords). The pool publishes at hand-offs, not per
	// task, so the task path stores nothing here.
	own []uint64

	activity uint64 // work events not visible in the counters (see NoteActivity)
	held     uint64 // heldBit while the PE holds work no counter shows (Hold)

	// The leader's pass memory: (rank, state, spawned, executed, activity)
	// per live PE, of the previous pass and the current one, their buffers
	// reused across calls, as is buf, where a Get lands a peer's reserved
	// line.
	prevVec []uint64
	curVec  []uint64
	buf     [shmem.LineSize]byte
	// lastKnown caches the most recent counters read from each PE, so a
	// PE that dies between probes still contributes its last published
	// totals to the lost-task accounting.
	lastKnown [][2]uint64

	// Probes counts global summation passes and Publishes the calls to
	// Publish that moved a counter, each in the current job, for
	// diagnostics.
	Probes    uint64
	Publishes uint64
	// Degraded reports that detection ran (or finished) over partial
	// membership; Lost is then the ledger estimate of spawned-but-
	// unexecuted tasks (at-least-once: a "lost" task may have run on the
	// dead PE before its crash went unreported, and descendants a lost
	// task never spawned appear in no counter).
	Degraded bool
	Lost     uint64
}

// Termination-flag encoding: 0 = running; otherwise (lost << 1) | 1, so a
// fault-free verdict is 1.

// New constructs this PE's detector over words 4-7 of its reserved line,
// clearing what an earlier detector of the world left there. Every PE
// calls it before a barrier that precedes the first job.
func New(ctx *shmem.Ctx) (*Detector, error) {
	own, err := ctx.OwnWords(0, len(shmem.Line{}))
	if err != nil {
		return nil, err
	}
	for w := shmem.WordSpawned; w <= shmem.WordActivity; w++ {
		atomic.StoreUint64(&own[w], 0)
	}
	return &Detector{ctx: ctx, own: own, lastKnown: make([][2]uint64, ctx.NumPEs())}, nil
}

// StartJob rearms the detector for the next job on a warm fleet. Every PE
// calls it between the previous job's completion and the barrier that
// opens the next job; the barrier orders the local flag reset against any
// job-N+1 broadcast. The reset is safe without remote coordination
// because the previous verdict is fully delivered before any PE reaches
// StartJob: the leader's broadcast issues a Store64NBI to every other flag
// and completes it with Quiet before reporting done, and every other PE
// only finishes the job after loading its own nonzero flag. Counters are
// NOT reset — they stay monotonic across jobs (see the package comment) —
// so Lost accumulates across degraded jobs; callers wanting per-job lost
// counts must difference it.
func (d *Detector) StartJob() error {
	d.prevVec = d.prevVec[:0]
	d.Probes, d.Publishes = 0, 0
	atomic.StoreUint64(&d.own[shmem.WordFlag], 0)
	return nil
}

// Counts returns this PE's published counters, words 4-5 of its line.
func (d *Detector) Counts() (spawned, executed uint64) {
	return atomic.LoadUint64(&d.own[shmem.WordSpawned]), atomic.LoadUint64(&d.own[shmem.WordExecuted])
}

// Publish is the detector's one counting entry: it adds count deltas and
// publishes the counters it moved. The pool's owner sums its workers'
// counts and publishes the deltas in one call, at hand-offs rather than per
// task. Correctness requires two orderings from the caller, both
// load-side:
//
//   - Workers must increment their spawned counter before the task
//     becomes visible anywhere (before it enters even the worker's own
//     private deque), and their executed counter only after its body.
//   - The owner must read all workers' executed counters before reading
//     their spawned counters. Then every executed task it counts has its
//     spawn (and, transitively, the spawns of all its children created
//     before it finished) included in the spawned sum, so the published
//     pair never under-counts outstanding work.
//
// Publish itself stores spawned before executed, so a remote reader that
// tears the pair sees either spawned ahead (not quiescent) or executed
// ahead (treated as a torn snapshot and retried by Check). A task counted
// in an unpublished delta must not reach another PE — a released block, a
// remote spawn, a forwarded task — until the Publish covering its spawn
// returns. Published counts may lag the PE's own otherwise: a lagging
// consistent cut leaves out executions together with every spawn they
// covered, so it only ever shows the PE busier than it is, and a PE
// publishes before it probes, when it has nothing left to run.
func (d *Detector) Publish(spawned, executed int) {
	if spawned > 0 {
		atomic.AddUint64(&d.own[shmem.WordSpawned], uint64(spawned))
	}
	if executed > 0 {
		atomic.AddUint64(&d.own[shmem.WordExecuted], uint64(executed))
	}
	if spawned > 0 || executed > 0 {
		d.Publishes++
	}
}

// NoteActivity records a work event invisible to the task counters —
// stolen tasks entering the local queue, an inbox drain — so degraded-mode
// detection can tell "survivors quiescent" from "work still moving".
// Fault-free runs pay one local increment and no communication; the beacon
// word is only published once a peer has died.
func (d *Detector) NoteActivity() {
	d.activity++
	if d.ctx.Liveness().AnyDead() {
		atomic.StoreUint64(&d.own[shmem.WordActivity], d.activity|d.held)
	}
}

// heldBit marks a published activity beacon whose PE holds work.
const heldBit = 1 << 63

// Hold publishes that this PE holds, or no longer holds, counted work that
// is in no queue: a remote-spawn batch whose target stopped answering,
// kept until the failure detector rules on it. No pass that reads a held
// beacon is a verdict, so a degraded wave cannot write the batch off while
// its sender waits; either call moves the beacon.
func (d *Detector) Hold(on bool) {
	d.held = 0
	if on {
		d.held = heldBit
	}
	d.activity++
	atomic.StoreUint64(&d.own[shmem.WordActivity], d.activity|d.held)
}

// Check is called by an idle PE. It returns true once global termination
// has been detected, which every PE learns from its own flag word. The
// wave leader (shmem.Liveness.Leader: the lowest rank neither dead nor
// exited, so a draining or parked rank 0 keeps the wave) performs one pass
// per call; every other PE polls its local flag (no communication). One
// pass serves every world:
//
//   - It reads each live PE's reserved line — state, counters, activity —
//     with one Get (the leader's own is a local read) and records (rank,
//     state, spawned, executed, activity) for each. The sum runs over
//     parked ranks too: counters are monotonic for the fleet's lifetime,
//     and tasks a rank executed before draining out must stay in the
//     executed sum, which makes a drain loss-free.
//   - Two equal consecutive passes are a verdict: no live PE executed,
//     spawned, stole or received work, nor began or completed a
//     membership transition, between its two reads, so the values are
//     one consistent cut over one membership. With every PE live the cut
//     must also balance (spawned == executed; a torn pass never repeats).
//     Once a peer has died the balance can never be restored — the dead
//     took claimed work with them — and the pool publishes per task, so
//     equal passes alone mean the survivors are quiescent, unless one
//     holds work outside every queue and says so (Hold): a held beacon is
//     no verdict.
//   - The leader broadcasts (lost << 1) | 1 to every other PE of the pass,
//     where lost is spawned - executed over the live counters plus the
//     dead PEs' last-known ones: a ledger estimate under at-least-once
//     accounting (stale dead-PE counters shift it either way), reported
//     rather than silently dropped. Only after Quiet does it store the
//     verdict into its own flag, so a peer dying between verdict and
//     broadcast voids the pass instead of failing the world or leaving a
//     survivor without the flag.
func (d *Detector) Check() (bool, error) {
	if d.flagSet() {
		return true, nil
	}
	lv := d.ctx.Liveness()
	dead := lv.AnyDead()
	if dead {
		d.Degraded = true
		// A PE inside Check has nothing runnable: its beacon is current
		// before any pass compares it (NoteActivity stores only once a
		// peer has died).
		atomic.StoreUint64(&d.own[shmem.WordActivity], d.activity)
	}
	if lv.Leader() != d.ctx.Rank() {
		return false, nil
	}
	d.Probes++
	vec := d.curVec[:0]
	var spawned, executed uint64
	held := false
	var line shmem.Line
	for pe := range d.lastKnown {
		if !lv.Alive(pe) {
			spawned += d.lastKnown[pe][0]
			executed += d.lastKnown[pe][1]
			continue
		}
		if err := d.ctx.Get(pe, 0, d.buf[:]); err != nil {
			return false, d.void(err)
		}
		line.Decode(d.buf[:])
		sp, ex, act := line[shmem.WordSpawned], line[shmem.WordExecuted], line[shmem.WordActivity]
		d.lastKnown[pe] = [2]uint64{sp, ex}
		spawned += sp
		executed += ex
		vec = append(vec, uint64(pe), line[shmem.WordState], sp, ex, act)
		held = held || act&heldBit != 0
	}
	same := slices.Equal(vec, d.prevVec)
	d.prevVec, d.curVec = vec, d.prevVec
	if !same || !dead && spawned != executed || held {
		return false, nil
	}
	lost := spawned - min(spawned, executed)
	for i := 0; i < len(vec); i += 5 {
		if pe := int(vec[i]); pe != d.ctx.Rank() {
			if err := d.ctx.Store64NBI(pe, shmem.WordFlag.Addr(), lost<<1|1); err != nil {
				return false, d.void(err)
			}
		}
	}
	if err := d.ctx.Quiet(); err != nil {
		return false, d.void(err)
	}
	atomic.StoreUint64(&d.own[shmem.WordFlag], lost<<1|1)
	return d.flagSet(), nil
}

// void forgets the previous pass after one that cannot stand. A peer that
// stopped answering (ErrPeerDead, or ErrOpTimeout before the detector
// declares it) is membership changing under the pass, not a broken run:
// the next pass sees it in the liveness view. Any other error is returned.
func (d *Detector) void(err error) error {
	d.prevVec = d.prevVec[:0]
	if errors.Is(err, shmem.ErrPeerDead) || errors.Is(err, shmem.ErrOpTimeout) {
		return nil
	}
	return err
}

// flagSet polls this PE's own termination flag, the one place any PE —
// the leader too — adopts a verdict.
func (d *Detector) flagSet() bool {
	v := atomic.LoadUint64(&d.own[shmem.WordFlag])
	if v != 0 {
		d.Lost = v >> 1
	}
	return v != 0
}
