// Search layer: victim selection and the steal loop. A PE that runs out
// of local and acquirable work steals from uniformly random peers (the
// paper's policy); the selector is small and self-contained so its draw
// is testable without bringing up a world.
package pool

import (
	"errors"
	"math/rand/v2"
	"slices"

	"sws/internal/shmem"
	"sws/internal/wsq"
)

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// PCG seeds from (Config.Seed, rank, worker) tuples.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rngStream returns the deterministic random stream for one worker
// goroutine: independent per (seed, rank, worker id), reproducible across
// runs. Worker 0 is the owner worker, whose stream also drives victim
// selection.
func rngStream(seed int64, rank, worker int) *rand.Rand {
	s1 := splitmix64(uint64(seed) ^ splitmix64(uint64(rank)<<1|1))
	s2 := splitmix64(s1 ^ splitmix64(uint64(worker)<<1|1))
	return rand.New(rand.NewPCG(s1, s2))
}

// victimSelector picks uniformly random steal targets for one thief. It is
// used only by the owner worker (victim choice is inter-PE work), so it
// needs no synchronization.
//
// Selection runs over a membership list — the engaged ranks, sorted
// ascending, self included — rather than the raw world size, so elastic
// worlds can reseat it when ranks drain or join. The draw is over
// *positions* in the list, mapped back to a rank: on a full membership
// (members[i] == i) that is draw-for-draw identical to selecting over
// ranks directly, which keeps fixed-membership sim runs bit-compatible
// with the pre-membership selector.
type victimSelector struct {
	rank int // the thief's own rank (never returned)
	rng  *rand.Rand

	members []int // engaged ranks, sorted ascending, self included
	mypos   int   // index of rank within members
}

func newVictimSelector(rank, n int, rng *rand.Rand) *victimSelector {
	s := &victimSelector{rank: rank, rng: rng}
	s.members = make([]int, n)
	for i := range s.members {
		s.members[i] = i
	}
	s.mypos = rank
	return s
}

// reseat rebuilds the selector against a new membership (engaged ranks,
// sorted ascending; the slice is copied). The selector's own rank is
// inserted if absent — a thief always occupies a position in its own
// view.
func (s *victimSelector) reseat(members []int) {
	s.members = append(s.members[:0], members...)
	pos, in := slices.BinarySearch(s.members, s.rank)
	if !in {
		s.members = slices.Insert(s.members, pos, s.rank)
	}
	s.mypos = pos
}

// victims reports how many steal targets the current membership offers.
func (s *victimSelector) victims() int { return len(s.members) - 1 }

// next picks a uniformly random member other than this one. Callers must
// not invoke it with zero victims (see victims).
func (s *victimSelector) next() int {
	pv := s.rng.IntN(len(s.members) - 1)
	if pv >= s.mypos {
		pv++
	}
	return s.members[pv]
}

// stealFailure classifies a Steal error: transport-layer failures (dead or
// unresponsive peer, injected drop/partition) end the attempt and the
// search continues, a dead victim leaving the draw; anything else
// (protocol corruption, world failure) stays fatal.
func stealFailure(err error) (transient, dead bool) {
	switch {
	case errors.Is(err, shmem.ErrPeerDead):
		return true, true
	case errors.Is(err, shmem.ErrOpTimeout),
		errors.Is(err, shmem.ErrDropped),
		errors.Is(err, shmem.ErrPartitioned):
		return true, false
	}
	return false, false
}

// stealTries is the number of victims tried per search round before
// re-checking termination.
const stealTries = 2

// search makes up to stealTries steal attempts against selected victims,
// enqueueing any stolen tasks locally. It reports whether work was found.
// Stolen tasks were counted as spawned by their original spawner, so they
// are pushed without touching the termination counters. An attempt is
// booked by the clock reads its journal record holds (StealElapsed).
func (p *Pool) search() (bool, error) {
	for i := 0; i < stealTries && p.vic.victims() > 0; i++ {
		tasks, out, err := p.q.Steal(p.vic.next())
		el := p.q.StealElapsed()
		if err != nil {
			transient, dead := stealFailure(err)
			if !transient {
				return false, err
			}
			// The victim, not the world, is broken: the attempt was search,
			// as against an empty victim. A dead one leaves the draw for
			// good (the liveness view is the one authority on who can be
			// stolen from); degraded termination accounts for its work.
			p.bk.stealTransportErrs.Add(1)
			p.bk.searchTime.Add(int64(el))
			if dead || errors.Is(err, shmem.ErrOpTimeout) {
				// First peer-death/timeout observation dumps the journal
				// (once per process): the ring still holds the protocol
				// traffic leading up to the failure.
				_ = p.ctx.FlightDump("steal failed: " + err.Error())
			}
			if dead {
				p.reseatVictims(p.ctx.Liveness())
			}
			continue
		}
		if out != wsq.Stolen {
			if out == wsq.Empty {
				p.bk.stealsEmpty.Add(1)
			} else {
				p.bk.stealsDisabled.Add(1)
			}
			p.bk.searchTime.Add(int64(el))
			p.lat.search.Record(el)
			continue
		}
		p.bk.stealsOK.Add(1)
		p.bk.tasksStolen.Add(uint64(len(tasks)))
		p.bk.stealTime.Add(int64(el))
		p.lat.steal.Record(el)
		// Publish activity before the stolen tasks become runnable so
		// degraded-mode termination detection cannot read this PE as
		// quiescent while it holds freshly stolen work.
		p.det.NoteActivity()
		for _, d := range tasks {
			if err := p.push(d); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	return false, nil
}
