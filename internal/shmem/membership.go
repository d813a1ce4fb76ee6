package shmem

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/obs"
)

// This file implements elastic membership: voluntary, loss-free
// transitions of PEs in and out of a live world, layered on the same
// per-rank state machine the failure detector uses (liveness.go). The
// world is built at its maximum size; membership is a dynamic subset of
// ranks versioned by an epoch counter. A rank outside the membership is
// Parked: its goroutine (or process) is alive and participates in
// collectives, but it holds no work, advertises no stealable queue, and
// is excluded from victim sets and spawn targets.
//
// Transitions are two-phase so the scheduler can make them loss-free:
//
//	Alive ──BeginDrain──▶ Draining ──CompleteDrain──▶ Parked
//	Parked ──BeginJoin──▶ Joining ──CompleteJoin───▶ Alive
//
// Begin* may be called by anything (a resize controller, a virtual-time
// churn schedule, a wall-clock timer); Complete* is called by the
// affected PE itself once it has flushed its queue (drain) or rebuilt
// its scheduler state (join). Every transition bumps the membership
// epoch; schedulers watch the epoch with one atomic load per loop
// iteration and rebuild victim sets when it moves. The termination wave
// reads each rank's state word in its own pass instead.
//
// Like the failure detector, the whole layer is inert until used: the
// membership epoch stays zero (one atomic load to check) until the first
// transition or SetInitialMembers call, so fixed-membership runs take no
// extra branches, draw no extra randomness, and replay byte-identically
// under the sim transport.

// Membership extensions of the PeerState machine. Unlike Dead these are
// voluntary and reversible: Parked is not a failure, and a
// parked rank may later join again.
const (
	// PeerJoining: the rank has been asked to (re)enter the membership
	// and is rebuilding its scheduler state; it becomes a steal victim
	// once it completes the join.
	PeerJoining PeerState = 3
	// PeerDraining: the rank is leaving voluntarily; it stops
	// advertising stealable work and is flushing its queue into the
	// remaining members.
	PeerDraining PeerState = 4
	// PeerParked: the rank is outside the membership: alive, in the
	// collectives, but holding no work and receiving no steals.
	PeerParked PeerState = 5
)

// Elastic reports whether membership transitions have ever been enabled
// on this world (SetInitialMembers or any Begin* call). One atomic load;
// false means the membership layer is fully inert.
func (l *Liveness) Elastic() bool { return l.memberEpoch.Load() != 0 }

// MemberEpoch returns the current membership epoch. It starts at zero
// and bumps on every membership transition; schedulers compare it
// against a cached copy to detect changes with one atomic load.
func (l *Liveness) MemberEpoch() uint64 { return l.memberEpoch.Load() }

// Member reports whether rank is currently inside the membership: a
// valid steal victim and spawn target. Joining ranks are not until they
// complete the join.
func (l *Liveness) Member(rank int) bool { return l.State(rank) == PeerAlive }

// Members appends the current membership (sorted ascending) to dst.
func (l *Liveness) Members(dst []int) []int {
	for i := range l.states {
		if PeerState(l.states[i].Load()) == PeerAlive {
			dst = append(dst, i)
		}
	}
	return dst
}

// MembershipCounts returns the rank counts per membership state (dead
// ranks are none of these).
func (l *Liveness) MembershipCounts() (live, joining, draining, parked int) {
	for i := range l.states {
		switch PeerState(l.states[i].Load()) {
		case PeerAlive:
			live++
		case PeerJoining:
			joining++
		case PeerDraining:
			draining++
		case PeerParked:
			parked++
		}
	}
	return
}

// Leader returns the rank that drives the termination wave: the lowest
// one neither dead nor exited (0 if none is: termination is then moot). A
// draining or parked rank keeps the wave, so the rule reads deaths only and
// every process of a joined world names the same leader whatever its
// membership mirror says. While rank 0 lives it is one atomic load.
func (l *Liveness) Leader() int {
	for i := range l.states {
		if l.Alive(i) {
			return i
		}
	}
	return 0
}

// SetInitialMembers declares that only ranks [0, n) start inside the
// membership; ranks [n, NumPEs) start Parked. It must be called before
// the world runs (every process of a distributed world must pass the
// same n), and its epoch bump enables the elastic layer.
func (l *Liveness) SetInitialMembers(n int) error {
	if n < 1 || n > len(l.states) {
		return fmt.Errorf("shmem: initial members %d outside [1, %d]", n, len(l.states))
	}
	for r := n; r < len(l.states); r++ {
		l.states[r].Store(int32(PeerParked))
		l.publishMember(r)
	}
	l.memberEpoch.Add(1)
	return nil
}

// SetInitialMembers is the world-level entry point (see Liveness).
func (w *World) SetInitialMembers(n int) error { return w.live.SetInitialMembers(n) }

// BeginDrain starts a voluntary exit: rank stops being a steal victim
// and spawn target immediately (epoch bump), and its scheduler — seeing
// the Draining state — flushes its queue into the remaining members and
// then calls CompleteDrain. Refused if it would empty the membership or
// if rank is not currently a member.
func (l *Liveness) BeginDrain(rank int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rank < 0 || rank >= len(l.states) {
		return fmt.Errorf("shmem: drain rank %d out of range", rank)
	}
	others := 0
	for i := range l.states {
		if i != rank && PeerState(l.states[i].Load()) == PeerAlive {
			others++
		}
	}
	if others == 0 {
		return fmt.Errorf("shmem: draining rank %d would leave an empty membership", rank)
	}
	if !l.transition(rank, PeerAlive, PeerDraining) {
		return fmt.Errorf("shmem: rank %d is %v, not a member; cannot drain", rank, l.State(rank))
	}
	atomic.StoreInt64(&l.drainStart[rank], int64(mono()))
	return nil
}

// CompleteDrain parks a draining rank. Called by the rank itself once
// its queue is flushed (or by a resize controller between jobs, when
// queues are globally empty).
func (l *Liveness) CompleteDrain(rank int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.transition(rank, PeerDraining, PeerParked) {
		return fmt.Errorf("shmem: rank %d is %v, not draining", rank, l.State(rank))
	}
	if t0 := atomic.SwapInt64(&l.drainStart[rank], 0); t0 != 0 {
		// Wall-clock observability only: the recording draws no
		// randomness and gates no scheduling, so sim replays are
		// unaffected.
		l.drainHist.Record(mono() - time.Duration(t0))
		l.drains.Add(1)
	}
	return nil
}

// BeginJoin starts a (re)entry: a parked rank becomes Joining, and its
// scheduler — seeing the state — rebuilds victim sets and calls
// CompleteJoin to become a member again.
func (l *Liveness) BeginJoin(rank int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rank < 0 || rank >= len(l.states) {
		return fmt.Errorf("shmem: join rank %d out of range", rank)
	}
	if !l.transition(rank, PeerParked, PeerJoining) {
		return fmt.Errorf("shmem: rank %d is %v, not parked; cannot join", rank, l.State(rank))
	}
	l.joins.Add(1)
	return nil
}

// CompleteJoin makes a joining rank a full member (steal victim and spawn
// target).
func (l *Liveness) CompleteJoin(rank int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.transition(rank, PeerJoining, PeerAlive) {
		return fmt.Errorf("shmem: rank %d is %v, not joining", rank, l.State(rank))
	}
	return nil
}

// publishMember mirrors rank's state into its reserved word (WordState),
// where remote probers read it. Best-effort: over tcp only the local
// rank's heap exists in this process.
func (l *Liveness) publishMember(rank int) {
	pe := l.w.pes[rank]
	if pe == nil {
		return
	}
	atomic.StoreUint64(&pe.words[WordState], uint64(l.states[rank].Load()))
}

// mirrorMember folds a peer's remotely advertised membership state into
// the local view (distributed worlds; the prober calls it). Voluntary
// states and an exit copy over; Alive only overwrites another voluntary
// state, so the heartbeat detector keeps sole authority over Dead.
func (l *Liveness) mirrorMember(rank int, adv PeerState) {
	cur := l.State(rank)
	if cur == PeerDead || cur == PeerExited || cur == adv {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch adv {
	case PeerJoining, PeerDraining, PeerParked, PeerExited:
		l.transition(rank, cur, adv)
	case PeerAlive:
		if cur == PeerJoining || cur == PeerDraining || cur == PeerParked {
			l.transition(rank, cur, PeerAlive)
		}
	}
}

// Joins returns the number of BeginJoin transitions observed locally.
func (l *Liveness) Joins() uint64 { return l.joins.Load() }

// Drains returns the number of completed drains observed locally.
func (l *Liveness) Drains() uint64 { return l.drains.Load() }

// DrainDurations snapshots the wall-clock drain-duration histogram
// (BeginDrain to CompleteDrain, for drains completed in this process).
func (l *Liveness) DrainDurations() obs.HistSnap { return l.drainHist.Snapshot() }
