package pool

import (
	"fmt"
	"sync"
	"testing"

	"sws/internal/shmem"
)

// selector builds a victimSelector directly (no world needed): selection
// is a pure function of (rank, n, rng).
func selector(rank, n int, seed int64) *victimSelector {
	return newVictimSelector(rank, n, rngStream(seed, rank, 0))
}

// Self-exclusion must hold at every rank.
func TestVictimSelfExclusion(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		for rank := 0; rank < n; rank++ {
			s := selector(rank, n, 41)
			for i := 0; i < 200; i++ {
				if v := s.next(); v == rank {
					t.Fatalf("rank %d/%d picked self on attempt %d", rank, n, i)
				} else if v < 0 || v >= n {
					t.Fatalf("rank %d/%d picked %d out of range", rank, n, v)
				}
			}
		}
	}
}

// Reseating to the full membership must leave selection draw-for-draw
// identical to a fresh selector — the bit-compat property that keeps
// fixed-membership sim replays from older seeds byte-identical.
func TestReseatFullMembershipDrawIdentical(t *testing.T) {
	const n, seed = 7, 71
	full := []int{0, 1, 2, 3, 4, 5, 6}
	a := selector(2, n, seed)
	b := selector(2, n, seed)
	b.reseat(full)
	for i := 0; i < 300; i++ {
		if va, vb := a.next(), b.next(); va != vb {
			t.Fatalf("draw %d diverged after full-membership reseat: %d vs %d", i, va, vb)
		}
	}
}

// Selection over a partial membership must stay inside it and keep
// self-excluding — including for a selector whose own rank has left the
// membership (it keeps itself in its view).
func TestReseatPartialMembership(t *testing.T) {
	members := []int{0, 2, 3, 6}
	in := map[int]bool{0: true, 2: true, 3: true, 6: true}
	for _, rank := range members {
		s := selector(rank, 7, 81)
		s.reseat(members)
		if got := s.victims(); got != len(members)-1 {
			t.Fatalf("rank %d: victims() = %d, want %d", rank, got, len(members)-1)
		}
		for i := 0; i < 200; i++ {
			v := s.next()
			if v == rank {
				t.Fatalf("rank %d picked self on attempt %d", rank, i)
			}
			if !in[v] {
				t.Fatalf("rank %d picked non-member %d", rank, v)
			}
		}
	}
	s := selector(1, 7, 82)
	s.reseat(members) // rank 1 itself is not in the list
	for i := 0; i < 200; i++ {
		v := s.next()
		if v == 1 || !in[v] {
			t.Fatalf("departed-rank selector picked %d", v)
		}
	}
}

// TestDeadVictimLeavesVictimSet: the liveness view is the one authority on
// who can be stolen from. A steal that finds its victim declared dead
// reseats the thief's selector from that view, so the dead rank leaves the
// draw for good after one failed attempt, which counts as one transport
// error, and no later draw spends a steal on it.
func TestDeadVictimLeavesVictimSet(t *testing.T) {
	const dead = 2
	var built sync.WaitGroup
	built.Add(2)
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		reg.MustRegister("noop", func(*TaskCtx, []byte) error { return nil })
		p, err := New(c, reg, Config{Seed: 3})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			built.Done()
			return nil
		}
		built.Wait() // every queue is built before the thief looks at one
		c.Liveness().MarkDead(dead)
		if got := p.vic.victims(); got != 2 {
			return fmt.Errorf("victims() = %d before any steal, want 2", got)
		}
		for i := 0; i < 1000 && p.bk.stealTransportErrs.Load() == 0; i++ {
			if _, err := p.search(); err != nil {
				return err
			}
		}
		if got := p.vic.victims(); got != 1 {
			return fmt.Errorf("victims() = %d after a steal failed on dead PE %d, want 1", got, dead)
		}
		for i := 0; i < 10000; i++ {
			if v := p.vic.next(); v == dead {
				return fmt.Errorf("draw %d picked dead PE %d", i, dead)
			}
		}
		for i := 0; i < 100; i++ {
			if _, err := p.search(); err != nil {
				return err
			}
		}
		if got := p.Stats().StealTransportErrs; got != 1 {
			return fmt.Errorf("StealTransportErrs = %d, want exactly 1", got)
		}
		return nil
	})
}

// Per-worker random streams must be independent and deterministic:
// identical (seed, rank, worker) tuples agree, any differing coordinate
// diverges.
func TestRngStreams(t *testing.T) {
	draw := func(seed int64, rank, worker int) [8]uint64 {
		r := rngStream(seed, rank, worker)
		var out [8]uint64
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	base := draw(7, 1, 0)
	if base != draw(7, 1, 0) {
		t.Fatal("same tuple, different stream")
	}
	for _, other := range [][3]int64{{8, 1, 0}, {7, 2, 0}, {7, 1, 1}} {
		if base == draw(other[0], int(other[1]), int(other[2])) {
			t.Fatalf("tuple %v collided with (7,1,0)", other)
		}
	}
}
