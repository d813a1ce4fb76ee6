package shmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/obs"
)

// This file implements the liveness layer: a per-world membership view with
// heartbeat-based failure detection. Every transport shares the same
// Liveness; what differs is who drives it. Distributed worlds (Join) run a
// wall-clock prober that remotely reads each peer's heartbeat word; the
// deterministic simulation transport drives the same state machine from
// virtual-time events so crash schedules replay bit-identically; in-process
// worlds flip it explicitly through World.Kill (crash injection for tests).
//
// The layer is inert when nothing has failed: the per-op gate is a single
// atomic load of an event counter that stays zero until the first kill or
// death declaration, so fault-free runs take no extra branches, draw no
// extra randomness, and stay byte-identical under the sim replay tests.

// Error taxonomy for failure-tolerant callers. All transport-surfaced
// failures wrap one of these (plus op kind, initiator, and target rank via
// opError) so callers can errors.Is-classify transient vs fatal.
var (
	// ErrPeerDead marks an operation refused or unwound because the target
	// (or a required peer) has been declared dead by the failure detector.
	ErrPeerDead = errors.New("peer declared dead")
	// ErrOpTimeout marks an operation that exhausted its deadline/retry
	// budget against an unresponsive (but not yet declared dead) peer.
	ErrOpTimeout = errors.New("operation timed out")
	// ErrPEKilled marks operations issued by a PE that has itself been
	// crash-injected (World.Kill or a sim kill schedule). A body error
	// wrapping ErrPEKilled does not fail the world: survivors continue in
	// degraded mode.
	ErrPEKilled = errors.New("PE killed")
	// ErrBarrierTimeout marks a barrier wait that expired without all
	// peers arriving.
	ErrBarrierTimeout = errors.New("barrier timed out")
)

// opError wraps a transport-surfaced error with the op kind, initiator, and
// target rank, preserving errors.Is/As through the chain.
func opError(op Op, from, to int, err error) error {
	return fmt.Errorf("shmem: %v %d→%d: %w", op, from, to, err)
}

// PeerState is one peer's position in the failure detector's state machine.
type PeerState int32

// The numbers are what journals and sws_liveness_peer_state carry.
const (
	// PeerAlive: heartbeats (or explicit health evidence) current, or
	// stalled for less than DeadAfter; operations still attempted.
	PeerAlive PeerState = 0
	// PeerExited: the rank's PE returned cleanly from World.Run on a
	// joined world and said so in its state word. Terminal like Dead, but no failure: peers stop
	// probing it and never declare it dead.
	PeerExited PeerState = 1
	// PeerDead: no heartbeat progress for DeadAfter (or explicit
	// declaration). Terminal: a dead peer never comes back.
	PeerDead PeerState = 2
)

var peerStateNames = [...]string{PeerAlive: "alive", PeerExited: "exited", PeerDead: "dead", PeerJoining: "joining", PeerDraining: "draining", PeerParked: "parked"}

func (s PeerState) String() string { return enumName(peerStateNames[:], int(s), "PeerState") }

// Liveness is the world's membership view. All methods are safe for
// concurrent use; reads on the hot path are single atomic loads.
type Liveness struct {
	w *World

	// states holds a PeerState per rank, moved only by transition. The
	// detector's one move is to dead, which is terminal.
	states []atomic.Int32
	// killed marks crash-injected ranks: the rank's own operations fail
	// with ErrPEKilled, and peers' operations against it fail fast with
	// ErrOpTimeout until the detector declares it dead.
	killed []atomic.Bool

	// events counts kills plus death declarations. Zero means the whole
	// layer is inert — the per-op gate checks only this.
	events atomic.Uint64
	// deadCount is the number of ranks in PeerDead.
	deadCount atomic.Int64

	// memberEpoch versions the membership view (membership.go); zero
	// until SetInitialMembers or the first voluntary transition, it is
	// also the elastic layer's gate.
	memberEpoch atomic.Uint64
	// drainStart holds BeginDrain wall-clock stamps per rank (unix
	// nanos, 0 = no drain in progress); drainHist/drains/joins feed the
	// membership metrics.
	drainStart []int64
	drainHist  obs.Hist
	drains     atomic.Uint64
	joins      atomic.Uint64

	// mu serializes voluntary transitions (membership.go).
	mu sync.Mutex

	// Prober goroutine state (distributed worlds only).
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newLiveness(w *World, n int) *Liveness {
	return &Liveness{
		w:          w,
		states:     make([]atomic.Int32, n),
		killed:     make([]atomic.Bool, n),
		drainStart: make([]int64, n),
		stop:       make(chan struct{}),
	}
}

// State returns the detector's view of rank.
func (l *Liveness) State(rank int) PeerState {
	if rank < 0 || rank >= len(l.states) {
		return PeerDead
	}
	return PeerState(l.states[rank].Load())
}

// Alive reports whether rank has neither been declared dead nor exited.
func (l *Liveness) Alive(rank int) bool {
	s := l.State(rank)
	return s != PeerDead && s != PeerExited
}

// Killed reports whether rank has been crash-injected (it may not yet be
// declared dead).
func (l *Liveness) Killed(rank int) bool {
	return rank >= 0 && rank < len(l.killed) && l.killed[rank].Load()
}

// AnyDead reports whether any rank has been declared dead. One atomic load.
func (l *Liveness) AnyDead() bool { return l.deadCount.Load() > 0 }

// DeadCount returns the number of ranks declared dead.
func (l *Liveness) DeadCount() int { return int(l.deadCount.Load()) }

// Kill crash-injects rank: its own operations fail with ErrPEKilled and its
// peers' operations against it fail fast, as if the OS process died. The
// detector declares it dead after DeadAfter (immediately if DeadAfter <= 0
// is configured). Intended for tests and supervision tooling.
func (l *Liveness) Kill(rank int) {
	if rank < 0 || rank >= len(l.killed) || !l.crash(rank) {
		return
	}
	if d := l.w.cfg.DeadAfter; d > 0 {
		time.AfterFunc(d, func() { l.MarkDead(rank) })
	} else {
		l.MarkDead(rank)
	}
}

// crash flags rank crash-injected and reports whether this call was the
// one that did; declaring it dead DeadAfter later is the caller's clock's
// business.
func (l *Liveness) crash(rank int) bool {
	if l.killed[rank].Swap(true) {
		return false
	}
	l.events.Add(1)
	return true
}

// MarkDead declares rank dead (idempotent): peers' operations against it
// fail with ErrPeerDead, and barriers and WaitUntil64 waits unwind.
func (l *Liveness) MarkDead(rank int) { l.end(rank, PeerDead) }

// end moves rank to a terminal state, Dead or Exited, unless it is in one.
func (l *Liveness) end(rank int, to PeerState) {
	for rank >= 0 && rank < len(l.states) {
		if s := l.State(rank); s == PeerDead || s == PeerExited || l.transition(rank, s, to) {
			return
		}
	}
}

// transition is the one way a rank's state moves, for the failure detector
// and voluntary membership alike: CAS from → to, one journal record, then
// the effects of the state entered. Dead opens the liveness gate (events)
// and is counted; a voluntary state bumps the membership epoch, which
// enables the elastic layer, and is advertised in the rank's membership
// word. Voluntary transitions hold l.mu; the detector's take no
// lock and win any race through the CAS.
func (l *Liveness) transition(rank int, from, to PeerState) bool {
	if !l.states[rank].CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	l.w.flightState(rank, to)
	switch to {
	case PeerDead:
		l.events.Add(1)
		l.deadCount.Add(1)
	default:
		l.memberEpoch.Add(1)
		l.publishMember(rank)
	}
	return true
}

// startProber launches the heartbeat loop for a distributed world: bump our
// own beacon word and remotely read each peer's, declaring a peer dead
// after DeadAfter without progress. Read errors count as lack of progress
// (a SIGKILLed process stops answering at all). The probe period follows
// DeadAfter, so shortening it can never make a single late tick look like
// silence.
func (l *Liveness) startProber(selfRank int) {
	cfg := l.w.cfg
	interval := cfg.DeadAfter / heartbeatsPerDead
	if interval <= 0 || cfg.NumPEs < 2 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		type peer struct {
			lastVal    uint64
			lastChange time.Time
			seen       bool
		}
		peers := make([]peer, cfg.NumPEs)
		start := epoch.Add(mono())
		for i := range peers {
			peers[i].lastChange = start
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var beat uint64
		var probe [LineSize]byte
		var line Line
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			// Our own beacon: a local atomic store, visible to remote
			// probers via one-sided loads (every heap holds the reserved
			// words; setDefaults rejects one that could not).
			beat++
			atomic.StoreUint64(&l.w.pes[selfRank].words[WordHeartbeat], beat)
			// Re-advertise our own membership state each tick (covers a
			// transition that raced an earlier publish) and mirror the
			// peers' advertised states into the local view, so elastic
			// membership converges across process boundaries. One Get of
			// a peer's line fetches its heartbeat and state together.
			l.publishMember(selfRank)
			now := epoch.Add(mono())
			for r := 0; r < cfg.NumPEs; r++ {
				if r == selfRank || !l.Alive(r) {
					continue
				}
				_, _, err := l.w.transport.blocking(opReq{op: OpGet, from: selfRank, to: r, buf: probe[:]})
				if err == nil {
					line.Decode(probe[:])
					l.mirrorMember(r, PeerState(line[WordState]))
				}
				p := &peers[r]
				if err == nil && (!p.seen || line[WordHeartbeat] != p.lastVal) {
					p.seen = true
					p.lastVal = line[WordHeartbeat]
					p.lastChange = now
					continue
				}
				if now.Sub(p.lastChange) > cfg.DeadAfter {
					l.MarkDead(r)
				}
			}
		}
	}()
}

// stopProber terminates the heartbeat loop (idempotent).
func (l *Liveness) stopProber() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// Live returns the world's liveness view.
func (w *World) Live() *Liveness { return w.live }

// Kill crash-injects rank (see Liveness.Kill).
func (w *World) Kill(rank int) { w.live.Kill(rank) }
