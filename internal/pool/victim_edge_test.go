package pool

import (
	"testing"
)

// selector builds a victimSelector directly (no world needed): the
// selection policies are pure state machines over (rank, n, rng).
func selector(policy VictimPolicy, rank, n int, seed int64) *victimSelector {
	return newVictimSelector(policy, rank, n, rngStream(seed, rank, 0))
}

// Self-exclusion must hold for every policy at every rank.
func TestVictimSelfExclusion(t *testing.T) {
	for _, policy := range []VictimPolicy{VictimRandom, VictimRoundRobin, VictimSticky} {
		for _, n := range []int{2, 3, 7} {
			for rank := 0; rank < n; rank++ {
				s := selector(policy, rank, n, 41)
				for i := 0; i < 200; i++ {
					if v := s.next(); v == rank {
						t.Fatalf("%v rank %d/%d picked self on attempt %d", policy, rank, n, i)
					} else if v < 0 || v >= n {
						t.Fatalf("%v rank %d/%d picked %d out of range", policy, rank, n, v)
					}
				}
			}
		}
	}
}

// A sticky victim that has gone dry (or whose PE has died) must be
// forgotten after one fruitless revisit: the slot is consumed by next and
// re-armed only by noteSuccess.
func TestStickyForgetsDeadVictim(t *testing.T) {
	const n = 8
	s := selector(VictimSticky, 0, n, 51)

	// A productive steal arms the sticky slot; the very next attempt
	// revisits that victim.
	s.noteSuccess(5)
	if v := s.next(); v != 5 {
		t.Fatalf("armed sticky picked %d, want 5", v)
	}
	// The revisit found nothing (no noteSuccess): the victim is forgotten
	// and selection falls back to random — 5 may come up by chance, but
	// not deterministically every time.
	picked5 := 0
	const tries = 200
	for i := 0; i < tries; i++ {
		if v := s.next(); v == 5 {
			picked5++
		}
	}
	if picked5 == tries {
		t.Fatal("sticky victim never forgotten: all fallback picks returned it")
	}
	// Re-arming works after forgetting.
	s.noteSuccess(2)
	if v := s.next(); v != 2 {
		t.Fatalf("re-armed sticky picked %d, want 2", v)
	}

	// noteSuccess is policy-gated: under other policies it must not
	// change selection state.
	r := selector(VictimRandom, 0, n, 52)
	r.noteSuccess(3)
	if r.sticky != -1 {
		t.Fatal("noteSuccess armed sticky under VictimRandom")
	}
}

// A sticky victim that drains out of the membership must be forgotten at
// the reseat — never picked again while it is gone — and be adoptable
// again after it rejoins; a sticky victim that stays must survive the
// reseat (locality is not reset by unrelated churn).
func TestStickyForgetsDrainedVictimThenReadopts(t *testing.T) {
	const n = 6
	s := selector(VictimSticky, 0, n, 61)
	s.noteSuccess(4)
	// Rank 4 drains: the reseat must clear the armed slot.
	s.reseat([]int{0, 1, 2, 3, 5})
	if s.sticky != -1 {
		t.Fatalf("sticky still %d after its victim drained", s.sticky)
	}
	for i := 0; i < 200; i++ {
		if v := s.next(); v == 4 {
			t.Fatalf("picked drained rank 4 on attempt %d", i)
		}
	}
	// Rank 4 rejoins and a productive steal re-adopts it.
	s.reseat([]int{0, 1, 2, 3, 4, 5})
	s.noteSuccess(4)
	if v := s.next(); v != 4 {
		t.Fatalf("re-adopted sticky picked %d, want 4", v)
	}
	// Unrelated churn: a sticky victim that stays a member survives.
	s.noteSuccess(2)
	s.reseat([]int{0, 2, 4})
	if s.sticky != 2 {
		t.Fatalf("sticky = %d after a reseat that kept rank 2, want 2", s.sticky)
	}
}

// Reseating to the full membership must leave selection draw-for-draw
// identical to a fresh selector — the bit-compat property that keeps
// fixed-membership sim replays from older seeds byte-identical.
func TestReseatFullMembershipDrawIdentical(t *testing.T) {
	const n, seed = 7, 71
	full := []int{0, 1, 2, 3, 4, 5, 6}
	for _, policy := range []VictimPolicy{VictimRandom, VictimRoundRobin, VictimSticky} {
		a := selector(policy, 2, n, seed)
		b := selector(policy, 2, n, seed)
		b.reseat(full)
		for i := 0; i < 300; i++ {
			if va, vb := a.next(), b.next(); va != vb {
				t.Fatalf("%v: draw %d diverged after full-membership reseat: %d vs %d", policy, i, va, vb)
			}
		}
	}
}

// Selection over a partial membership must stay inside it and keep
// self-excluding — including for a selector whose own rank has left the
// membership (it keeps itself in its view).
func TestReseatPartialMembership(t *testing.T) {
	members := []int{0, 2, 3, 6}
	in := map[int]bool{0: true, 2: true, 3: true, 6: true}
	for _, policy := range []VictimPolicy{VictimRandom, VictimRoundRobin, VictimSticky} {
		for _, rank := range members {
			s := selector(policy, rank, 7, 81)
			s.reseat(members)
			if got := s.victims(); got != len(members)-1 {
				t.Fatalf("%v rank %d: victims() = %d, want %d", policy, rank, got, len(members)-1)
			}
			for i := 0; i < 200; i++ {
				v := s.next()
				if v == rank {
					t.Fatalf("%v rank %d picked self on attempt %d", policy, rank, i)
				}
				if !in[v] {
					t.Fatalf("%v rank %d picked non-member %d", policy, rank, v)
				}
			}
		}
	}
	s := selector(VictimRandom, 1, 7, 82)
	s.reseat(members) // rank 1 itself is not in the list
	for i := 0; i < 200; i++ {
		v := s.next()
		if v == 1 || !in[v] {
			t.Fatalf("departed-rank selector picked %d", v)
		}
	}
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
