package pool

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sws/internal/shmem"
	"sws/internal/task"
)

func TestVictimPolicyStrings(t *testing.T) {
	if VictimRandom.String() != "random" || VictimRoundRobin.String() != "round-robin" ||
		VictimSticky.String() != "sticky" {
		t.Error("victim policy strings wrong")
	}
	if VictimPolicy(9).String() == "" {
		t.Error("unknown policy string empty")
	}
}

// Every victim policy must complete the same workload correctly.
func TestVictimPoliciesCorrect(t *testing.T) {
	for _, vp := range []VictimPolicy{VictimRandom, VictimRoundRobin, VictimSticky} {
		vp := vp
		t.Run(vp.String(), func(t *testing.T) {
			var leaves atomic.Int64
			runWorld(t, 4, shmem.TransportLocal, func(c *shmem.Ctx) error {
				reg := NewRegistry()
				var h task.Handle
				h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
					args, err := task.ParseArgs(payload, 1)
					if err != nil {
						return err
					}
					if args[0] == 0 {
						leaves.Add(1)
						return nil
					}
					for i := 0; i < 2; i++ {
						if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
							return err
						}
					}
					return nil
				})
				p, err := New(c, reg, Config{Seed: 11, Victim: vp})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := p.Add(h, task.Args(uint64(11))); err != nil {
						return err
					}
				}
				return p.Run()
			})
			if leaves.Load() != 1<<11 {
				t.Fatalf("leaves = %d, want %d", leaves.Load(), 1<<11)
			}
		})
	}
}

// The round-robin and random policies must never pick the thief itself
// and must cover all peers.
func TestVictimSelectionCoverage(t *testing.T) {
	for _, vp := range []VictimPolicy{VictimRandom, VictimRoundRobin, VictimSticky} {
		vp := vp
		t.Run(vp.String(), func(t *testing.T) {
			runWorld(t, 5, shmem.TransportLocal, func(c *shmem.Ctx) error {
				reg := NewRegistry()
				reg.MustRegister("nop", func(tc *TaskCtx, payload []byte) error { return nil })
				p, err := New(c, reg, Config{Seed: 7, Victim: vp})
				if err != nil {
					return err
				}
				if c.Rank() != 2 {
					return nil
				}
				seen := make(map[int]bool)
				for i := 0; i < 200; i++ {
					v := p.vic.next()
					if v == c.Rank() {
						return fmt.Errorf("%v picked self", vp)
					}
					if v < 0 || v >= c.NumPEs() {
						return fmt.Errorf("%v picked %d out of range", vp, v)
					}
					seen[v] = true
				}
				if len(seen) != c.NumPEs()-1 {
					return fmt.Errorf("%v covered %d victims, want %d", vp, len(seen), c.NumPEs()-1)
				}
				return nil
			})
		})
	}
}
