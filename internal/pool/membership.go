// Membership glue: how a running pool reacts to elastic-membership
// transitions (internal/shmem/membership.go). The scheduler folds
// membership changes in at the top of each iteration:
//
//   - a PE whose own rank was moved to Draining flushes everything it
//     holds into the remaining members (drainOut — loss-free: every task
//     was already counted by its spawner, forwarding moves descriptors
//     without touching the termination ledger), completes its drain, and
//     parks;
//   - a parked PE stops scheduling entirely and runs stepParked instead:
//     forward stragglers that raced its departure, keep answering
//     termination probes (or lead them, as the lowest live rank), and
//     wait to be rejoined;
//   - a PE whose own rank was moved to Joining completes its join and
//     resumes the normal loop;
//   - every PE rebuilds its victim sets against the new membership
//     (reseatVictims), the view a thief that finds a victim dead also
//     reseats from.
//
// All of it is gated behind a single Elastic() load, so worlds that never
// engage the membership layer take no new branches, no new communication,
// and no new randomness — the property the byte-identical sim replay
// tests pin.
package pool

import (
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
)

// stepMembership folds membership-epoch changes into the scheduler. It
// costs one atomic load when the world is not elastic and two when it is
// but nothing changed; only an epoch change does real work (a death moves
// none: the steal that finds the rank dead reseats). Returns with p.parked
// set for the caller to divert into stepParked.
func (p *Pool) stepMembership() error {
	lv := p.ctx.Liveness()
	if !lv.Elastic() {
		return nil
	}
	// The epoch is read BEFORE the state and is the value stamped as seen:
	// a BeginDrain/BeginJoin on this rank that lands after the state read
	// carries a later epoch, so the next iteration adopts it instead of
	// finding it already marked seen. Our own Complete* below bumps the
	// epoch too; the price is one more pass that finds nothing changed.
	epoch := lv.MemberEpoch()
	if epoch == p.memberEpoch {
		return nil
	}
	self := p.ctx.Rank()
	switch lv.State(self) {
	case shmem.PeerDraining:
		if err := p.drainOut(); err != nil {
			return err
		}
		// CompleteDrain can lose its CAS only to a concurrent death
		// declaration against this rank; the loop re-reads state either
		// way, so the race is benign.
		if err := lv.CompleteDrain(self); err == nil {
			p.parked = true
			p.bk.memberDrains.Add(1)
			p.ctx.FlightRecord(trace.MemberDrain, int64(self), int64(lv.MemberEpoch()))
		}
	case shmem.PeerParked:
		p.parked = true
	case shmem.PeerJoining:
		if err := lv.CompleteJoin(self); err == nil {
			p.parked = false
			p.bk.memberJoins.Add(1)
			p.ctx.FlightRecord(trace.MemberJoin, int64(self), int64(lv.MemberEpoch()))
		}
	default:
		p.parked = false
	}
	p.exec.handoff.Store(p.parked) // a parked PE's executors take no work
	p.reseatVictims(lv)
	p.memberEpoch = epoch
	return nil
}

// reseatVictims rebuilds the victim selector against the current
// membership (lv.Members) and diffs it with the previous view: joins and
// voluntary departures land on the trace timeline so sws-inspect can show
// when each PE adopted the change. An epoch change calls it, and so does a
// steal that found its victim dead.
func (p *Pool) reseatVictims(lv *shmem.Liveness) {
	n := p.ctx.NumPEs()
	if p.wasMember == nil {
		// First reseat. The pre-elastic view was "everyone", so PEs that
		// were never members (SetInitialMembers start-up parks) show up as
		// drains here — which is exactly when this PE dropped them.
		p.wasMember = make([]bool, n)
		for i := range p.wasMember {
			p.wasMember[i] = true
		}
		p.nowMember = make([]bool, n)
	}
	p.memberBuf = lv.Members(p.memberBuf[:0])
	clear(p.nowMember)
	for _, v := range p.memberBuf {
		p.nowMember[v] = true
	}
	self := p.ctx.Rank()
	ep := int64(lv.MemberEpoch())
	for v := 0; v < n; v++ {
		if v == self || p.nowMember[v] == p.wasMember[v] {
			continue
		}
		if p.nowMember[v] {
			p.tr.Record(trace.MemberJoin, int64(v), ep, 0)
		} else if lv.Alive(v) {
			// Voluntary departure only: a death is journaled as its PeerState.
			p.tr.Record(trace.MemberDrain, int64(v), ep, 0)
		}
	}
	copy(p.wasMember, p.nowMember)
	p.vic.reseat(p.memberBuf)
}

// forwardTask hands an already-counted task to a live member, rotating
// targets so a draining PE spreads its queue rather than dumping it on
// one peer. The termination ledger is untouched: the spawner counted the
// task when it was created, and the receiver's inbox drain pushes without
// counting — so the task stays exactly-once through any number of hops.
// If every member refuses the send (or none remain), the task runs here:
// this PE is still alive, just leaving, and executing is always safe. Only
// d has that fallback, so what the outbox held goes out first, alone.
func (p *Pool) forwardTask(d task.Desc) error {
	if err := p.flushRemote(); err != nil {
		return err
	}
	self := p.ctx.Rank()
	p.fwdBuf = p.ctx.Liveness().Members(p.fwdBuf[:0])
	targets := p.fwdBuf[:0]
	for _, v := range p.fwdBuf {
		if v != self {
			targets = append(targets, v)
		}
	}
	for i := 0; i < len(targets); i++ {
		v := targets[(p.drainRR+i)%len(targets)]
		p.publishCounts()
		if err := p.mbox.send(v, d); err == nil {
			p.drainRR = (p.drainRR + i + 1) % len(targets)
			p.bk.tasksForwarded.Add(1)
			p.tr.Record(trace.RemoteSpawn, int64(v), 1, 0)
			return nil
		}
	}
	if werr := p.ctx.Err(); werr != nil {
		return werr
	}
	return p.execute(p.exec.workers[0], d)
}

// flushWorkerTier forwards everything the execution layer holds — what
// executors staged (under handoff, their whole private deques) and the
// intra-PE ring — and sends the outbox. Every task in the first two was
// counted by an executor and becomes remotely observable here, so the
// counts that cover it are published first (the ordering term.Publish
// relies on) — unconditionally, because a parked PE's executors may still
// be finishing tasks they held when it left, and this is the only place
// their counts reach the detector. Any output they stage afterwards is caught by the
// next flush (drain loop or stepParked). A PE without executors holds
// nothing here.
func (p *Pool) flushWorkerTier() error {
	p.publishCounts()
	if err := p.deliverStaged(p.forwardTask); err != nil {
		return err
	}
	for {
		d, ok := p.exec.ring.TryPop()
		if !ok {
			return p.flushRemote()
		}
		// Spawned by an executor since the publish above, possibly.
		p.publishCounts()
		if err := p.forwardTask(d); err != nil {
			return err
		}
	}
}

// drainOut flushes this PE's entire task inventory — the owner's private
// deque, protocol queue (local and shared portions), executors' private
// deques (handoff makes them stage those), intra-PE ring and staging area,
// and the remote-spawn inbox — into the remaining members. Zero tasks are
// lost: forwarding moves already-counted descriptors, so the global
// spawned/executed ledger stays apart until every forwarded task runs on
// its new home, and the termination wave cannot pass early.
func (p *Pool) drainOut() error {
	t0 := p.ctx.Now()
	p.exec.handoff.Store(true)
	wait := p.ctx.NewWait(0)
	for {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if err := p.flushWorkerTier(); err != nil {
			return err
		}
		d, ok, err := p.popOwned()
		if err != nil {
			return err
		}
		if ok {
			if err := p.forwardTask(d); err != nil {
				return err
			}
			continue
		}
		moved, err := p.q.Acquire()
		if err != nil {
			return err
		}
		if moved > 0 {
			continue
		}
		if err := p.q.Progress(); err != nil {
			return err
		}
		if p.q.LocalCount() == 0 && p.q.SharedAvail() == 0 {
			break
		}
		wait.Poll()
	}
	// Stragglers that raced into the inbox while the queue flushed; later
	// arrivals (a steal-era SpawnOn still in flight) are stepParked's job.
	if _, err := p.mbox.drain(p.forwardTask, nil); err != nil {
		return err
	}
	p.lat.drain.Record(p.ctx.Now().Sub(t0))
	return nil
}

// stepParked is a parked PE's whole scheduler iteration: forward any
// stragglers that raced its departure (inbox arrivals, late executor
// output, children of a locally-run fallback task) and keep answering
// termination probes so the wave that excludes this rank from new work
// still counts its history; a parked lowest live rank leads the wave from
// here. Reports job termination like stepCheckTermination.
func (p *Pool) stepParked() (bool, error) {
	if err := p.flushWorkerTier(); err != nil {
		return false, err
	}
	if _, err := p.mbox.drain(p.forwardTask, nil); err != nil {
		return false, err
	}
	for {
		d, ok, err := p.popOwned()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		if err := p.forwardTask(d); err != nil {
			return false, err
		}
	}
	return p.stepCheckTermination()
}
