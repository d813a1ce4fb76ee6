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
//     symmetric heap, updated with local atomic stores when it publishes:
//     not per task, but where a task it counted only locally could be
//     seen or run by someone else, and before it probes (see Publish).
//   - When idle, rank 0 sums all counters with one-sided gets. Two
//     consecutive identical sums with spawned == executed imply global
//     quiescence: any existing task keeps executed < spawned (tasks are
//     counted spawned at creation and executed only after running, so
//     in-flight stolen tasks hold the sums apart), and any activity
//     between the two passes perturbs a monotonic counter, breaking the
//     equality of the passes.
//   - Rank 0 then broadcasts a termination flag into every PE's heap with
//     non-blocking stores; idle PEs poll their own flag locally (free)
//     while continuing to search for work.
//
// A Detector is built once per pool (its heap slots are collective
// allocations) and serves a sequence of jobs: counters are monotonic
// across the fleet's lifetime — at every job boundary the global spawned
// and executed sums are equal, so quiescence detection for job N+1 is
// unaffected by the totals accumulated through job N — and the per-job
// verdict state (flag word, pass memory) is reset by StartJob between
// jobs.
package term

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"sws/internal/shmem"
)

// Detector is one PE's handle on the termination protocol.
type Detector struct {
	ctx *shmem.Ctx

	countersAddr shmem.Addr // 2 words: spawned, executed
	flagAddr     shmem.Addr // 1 word: see flag encoding below
	activityAddr shmem.Addr // 1 word: degraded-mode activity beacon

	// own is this PE's copy of those four words, as memory: a Publish is
	// one atomic store per counter it moves (shmem.Ctx.OwnWords). The pool
	// publishes at hand-offs, not per task, so the task path stores nothing
	// here.
	own []uint64

	spawned  uint64
	executed uint64
	activity uint64 // work events not visible in the counters (see NoteActivity)

	// Rank 0's detection state: the previous clean (spawned==executed)
	// global sum, or ^0 if none yet; lastCleanEpoch is the membership
	// epoch it was observed under (elastic worlds only — a clean pass
	// confirms only a clean pass taken over the same membership).
	lastClean      uint64
	lastCleanEpoch uint64
	done           bool

	// Degraded-mode leader state: the previous pass's per-live-PE
	// (spawned, executed, activity) vector, reused across calls.
	prevVec []uint64
	curVec  []uint64
	liveBuf []int
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

// The detector's symmetric words, as indices into Detector.own.
const (
	ownSpawned = iota
	ownExecuted
	ownFlag
	ownActivity
	numOwn
)

// Termination-flag encoding: 0 = running; otherwise bit 0 set and the
// upper bits carry the lost-task count ((lost << 1) | 1). The fault-free
// broadcast writes 1, i.e. lost = 0, so the encodings coincide.

// New collectively constructs a detector; every PE must call it at the
// same point in its allocation sequence.
func New(ctx *shmem.Ctx) (*Detector, error) {
	d := &Detector{ctx: ctx, lastClean: ^uint64(0)}
	base, err := ctx.Alloc(numOwn * shmem.WordSize)
	if err != nil {
		return nil, err
	}
	d.countersAddr = base + ownSpawned*shmem.WordSize
	d.flagAddr = base + ownFlag*shmem.WordSize
	d.activityAddr = base + ownActivity*shmem.WordSize
	if d.own, err = ctx.OwnWords(base, numOwn); err != nil {
		return nil, err
	}
	d.lastKnown = make([][2]uint64, ctx.NumPEs())
	return d, nil
}

// StartJob rearms the detector for the next job on a warm fleet. Every PE
// calls it between the previous job's completion and the barrier that
// opens the next job; the barrier orders the local flag reset against any
// job-N+1 broadcast. The reset is safe without remote coordination
// because the previous verdict is fully delivered before any PE reaches
// StartJob: the leader's broadcast issues a Store64NBI to every flag and
// completes it with Quiet before reporting done, and every other PE only
// finishes the job after loading its own nonzero flag. Counters are NOT
// reset — they stay monotonic across jobs (see the package comment) — so
// Lost accumulates across degraded jobs; callers wanting per-job lost
// counts must difference it.
func (d *Detector) StartJob() error {
	d.done = false
	d.lastClean = ^uint64(0)
	d.prevVec = d.prevVec[:0]
	d.curVec = d.curVec[:0]
	d.Probes, d.Publishes = 0, 0
	atomic.StoreUint64(&d.own[ownFlag], 0)
	return nil
}

// Region returns the heap offset and length in bytes of the detector's
// symmetric words (counters, flag, activity), which a leader's probes read
// and its broadcast writes, so layout tests can check what shares their
// cache lines.
func (d *Detector) Region() (shmem.Addr, int) { return d.countersAddr, numOwn * shmem.WordSize }

// Counts returns this PE's local view of its own counters.
func (d *Detector) Counts() (spawned, executed uint64) {
	return d.spawned, d.executed
}

// Publish is the detector's one counting entry: it adds count deltas and
// publishes the counters it moved. The pool's owner sums its workers'
// counts and publishes the deltas in one call, at hand-offs rather than per
// task. Correctness requires two orderings from the caller, both
// load-side:
//
//   - Workers must increment their spawned counter before the task
//     becomes visible anywhere (before it enters even the worker's own
//     private deque), and
//     their executed counter only after the task body returns.
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
		d.spawned += uint64(spawned)
		atomic.StoreUint64(&d.own[ownSpawned], d.spawned)
	}
	if executed > 0 {
		d.executed += uint64(executed)
		atomic.StoreUint64(&d.own[ownExecuted], d.executed)
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
	if lv := d.ctx.Liveness(); lv != nil && lv.AnyDead() {
		atomic.StoreUint64(&d.own[ownActivity], d.activity)
	}
}

// Check is called by an idle PE. It returns true once global termination
// has been detected. The wave leader performs a summation pass per call;
// other ranks poll their local flag (no communication). The leader is
// rank 0 on a fixed-membership world; under elastic membership it is the
// lowest engaged (member or joining) rank, so a draining or parked rank
// 0 hands the wave to its successor and the wave re-forms over the new
// membership — any epoch change between two passes voids the first, so a
// verdict is only ever reached by two clean passes over the same
// membership. Once any peer has been declared dead, detection switches
// to the degraded protocol over live membership (see checkDegraded).
func (d *Detector) Check() (bool, error) {
	if d.done {
		return true, nil
	}
	lv := d.ctx.Liveness()
	if lv != nil && lv.AnyDead() {
		return d.checkDegraded(lv)
	}
	leader := 0
	elastic := lv != nil && lv.Elastic()
	var epoch uint64
	if elastic {
		leader = lv.Leader()
		epoch = lv.MemberEpoch()
	}
	if d.ctx.Rank() != leader {
		return d.flagSet(), nil
	}

	d.Probes++
	var sumSpawned, sumExecuted uint64
	var buf [2 * shmem.WordSize]byte
	// The sum runs over ALL ranks, parked included: counters are
	// monotonic for the fleet's lifetime, and tasks a rank executed
	// before draining out must stay in the executed sum — that is what
	// makes a drain loss-free from the detector's point of view.
	for pe := 0; pe < d.ctx.NumPEs(); pe++ {
		if err := d.ctx.Get(pe, d.countersAddr, buf[:]); err != nil {
			if transientPeerErr(err) {
				// The peer stopped answering but has not been declared dead
				// yet: drop this pass and retry; detection switches to the
				// degraded protocol once the declaration lands.
				d.lastClean = ^uint64(0)
				return false, nil
			}
			return false, err
		}
		sp := binary.NativeEndian.Uint64(buf[0:8])
		ex := binary.NativeEndian.Uint64(buf[8:16])
		d.lastKnown[pe] = [2]uint64{sp, ex}
		sumSpawned += sp
		sumExecuted += ex
	}
	if elastic && lv.MemberEpoch() != epoch {
		// Membership moved under the pass (a drain began flushing work
		// sideways, a join added a steal target): void it and re-form
		// the wave over the new membership.
		d.lastClean = ^uint64(0)
		return false, nil
	}
	if sumExecuted > sumSpawned {
		// A torn snapshot: a task spawned on one PE after we read its
		// counter was executed on a PE we read later. Not quiescent;
		// retry. (Genuine duplication is caught by workload checksums,
		// not here — the sums can legitimately look inverted in flight.)
		d.lastClean = ^uint64(0)
		return false, nil
	}
	if sumSpawned != sumExecuted {
		d.lastClean = ^uint64(0)
		return false, nil
	}
	if d.lastClean != sumSpawned || (elastic && d.lastCleanEpoch != epoch) {
		// First clean pass at this count (or under this membership);
		// confirm on the next call.
		d.lastClean = sumSpawned
		d.lastCleanEpoch = epoch
		return false, nil
	}
	// Two identical clean passes: quiesced. Broadcast the flag to every
	// rank — parked ranks poll it too, which is how they leave the job.
	for pe := 0; pe < d.ctx.NumPEs(); pe++ {
		if err := d.ctx.Store64NBI(pe, d.flagAddr, 1); err != nil {
			return false, err
		}
	}
	if err := d.ctx.Quiet(); err != nil {
		return false, err
	}
	d.done = true
	return true, nil
}

// flagSet polls this PE's own termination flag, adopting the leader's
// verdict once it has landed.
func (d *Detector) flagSet() bool {
	if v := atomic.LoadUint64(&d.own[ownFlag]); v != 0 {
		d.done = true
		d.Lost = v >> 1
	}
	return d.done
}

// transientPeerErr reports whether a detection-pass error means "membership
// just changed under us" rather than "the run is broken": the probed peer
// died (or stopped answering) between the liveness snapshot and the read.
func transientPeerErr(err error) bool {
	return errors.Is(err, shmem.ErrPeerDead) || errors.Is(err, shmem.ErrOpTimeout)
}

// checkDegraded detects termination over partial membership after one or
// more PEs died. The fault-free invariant (global spawned == executed) can
// never be restored — the dead PE took claimed-but-unfinished work with it
// — so the protocol changes shape:
//
//   - The leader is the lowest live rank (rank 0's death promotes a
//     survivor; detection state restarts from scratch, which is safe
//     because the protocol is memoryless across passes).
//   - A pass reads each live PE's (spawned, executed) counters and its
//     activity beacon. Two consecutive passes with identical per-PE
//     vectors over an identical live set mean no survivor executed,
//     spawned, stole, or received work in between: the survivors are
//     quiescent, and whatever keeps spawned != executed is attributable
//     to the dead. That holds only if a busy survivor's counters move
//     with every task it runs, so once a peer is dead the pool publishes
//     per task.
//   - The leader then broadcasts (lost << 1) | 1 to every live PE's flag,
//     where lost = spawned - executed summed over live counters plus the
//     dead PEs' last-known published values: a ledger estimate under
//     at-least-once accounting (stale dead-PE counters shift it either
//     way, and descendants never spawned appear in no counter), reported
//     rather than silently dropped.
func (d *Detector) checkDegraded(lv *shmem.Liveness) (bool, error) {
	d.Degraded = true
	// Publish our own quiescence evidence before probing: a PE inside
	// Check has, by definition, nothing runnable right now.
	atomic.StoreUint64(&d.own[ownActivity], d.activity)
	// The flag may already carry a verdict from the leader.
	if d.flagSet() {
		return true, nil
	}
	d.liveBuf = lv.LiveRanks(d.liveBuf[:0])
	live := d.liveBuf
	if len(live) == 0 || live[0] != d.ctx.Rank() {
		return false, nil // not the leader; keep polling the local flag
	}
	d.Probes++
	vec := append(d.curVec[:0], uint64(len(live)))
	var sumSpawned, sumExecuted uint64
	var buf [2 * shmem.WordSize]byte
	for _, pe := range live {
		if err := d.ctx.Get(pe, d.countersAddr, buf[:]); err != nil {
			if transientPeerErr(err) {
				d.prevVec = d.prevVec[:0]
				return false, nil
			}
			return false, err
		}
		act, err := d.ctx.Load64(pe, d.activityAddr)
		if err != nil {
			if transientPeerErr(err) {
				d.prevVec = d.prevVec[:0]
				return false, nil
			}
			return false, err
		}
		sp := binary.NativeEndian.Uint64(buf[0:8])
		ex := binary.NativeEndian.Uint64(buf[8:16])
		d.lastKnown[pe] = [2]uint64{sp, ex}
		sumSpawned += sp
		sumExecuted += ex
		vec = append(vec, uint64(pe), sp, ex, act)
	}
	d.curVec = vec
	same := len(vec) == len(d.prevVec)
	if same {
		for i := range vec {
			if vec[i] != d.prevVec[i] {
				same = false
				break
			}
		}
	}
	d.prevVec = append(d.prevVec[:0], vec...)
	if !same {
		return false, nil
	}
	// Survivors quiescent. Fold in the dead PEs' last-known counters and
	// broadcast the verdict to the living.
	for r := 0; r < d.ctx.NumPEs(); r++ {
		if lv.Alive(r) {
			continue
		}
		sumSpawned += d.lastKnown[r][0]
		sumExecuted += d.lastKnown[r][1]
	}
	var lost uint64
	if sumSpawned > sumExecuted {
		lost = sumSpawned - sumExecuted
	}
	flag := lost<<1 | 1
	for _, pe := range live {
		if err := d.ctx.Store64NBI(pe, d.flagAddr, flag); err != nil {
			if transientPeerErr(err) {
				d.prevVec = d.prevVec[:0]
				return false, nil
			}
			return false, err
		}
	}
	if err := d.ctx.Quiet(); err != nil {
		return false, err
	}
	d.done = true
	d.Lost = lost
	return true, nil
}
