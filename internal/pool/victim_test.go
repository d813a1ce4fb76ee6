package pool

import (
	"fmt"
	"testing"

	"sws/internal/shmem"
)

// The pool's victim draw must never pick the thief itself and must cover
// all peers. Victims are drawn uniformly at random, the only order the
// selector has.
func TestVictimSelectionCoverage(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		runWorld(t, 5, shmem.TransportLocal, func(c *shmem.Ctx) error {
			reg := NewRegistry()
			reg.MustRegister("nop", func(tc *TaskCtx, payload []byte) error { return nil })
			p, err := New(c, reg, Config{Seed: 7})
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
					return fmt.Errorf("picked self")
				}
				if v < 0 || v >= c.NumPEs() {
					return fmt.Errorf("picked %d out of range", v)
				}
				seen[v] = true
			}
			if len(seen) != c.NumPEs()-1 {
				return fmt.Errorf("covered %d victims, want %d", len(seen), c.NumPEs()-1)
			}
			return nil
		})
	})
}
