package shmem

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCtxNowIsMonotonic: on a wall-clock transport Ctx.Now reads the
// monotonic clock alone, yet stays a time.Time that carries the monotonic
// reading and orders with time.Now, so a deadline or an interval taken on
// it agrees with every other clock read in the process: a time.Now read
// before it is never after it, and one read after it is never before it.
// Compute(d) returns no earlier than d after it started on either clock.
// Under the sim Ctx.Now stays the PE's virtual clock, and Compute(d) moves
// it by at least d. Nothing here asserts a rate or a speed.
func TestCtxNowIsMonotonic(t *testing.T) {
	const reads, d = 1000, 20 * time.Microsecond
	everyTransport(t, func(t *testing.T, cfg Config) {
		sim := cfg.Transport == TransportSim
		run(t, cfg, func(c *Ctx) error {
			t0 := c.Now()
			if mono := strings.Contains(t0.String(), " m="); mono == sim {
				return fmt.Errorf("PE %d: Ctx.Now %v: monotonic reading %v under %v", c.Rank(), t0, mono, cfg.Transport)
			}
			if sim {
				if v := t0.Sub(time.Unix(0, 0)); v < 0 || v > cfg.Sim.MaxVirtualTime {
					return fmt.Errorf("PE %d: Ctx.Now %v is not a virtual clock (%v past its zero)", c.Rank(), t0, v)
				}
				c.Compute(d)
				if el := c.Now().Sub(t0); el < d {
					return fmt.Errorf("PE %d: Compute(%v) moved the virtual clock %v", c.Rank(), d, el)
				}
				return nil
			}
			for i := 0; i < reads; i++ {
				before := time.Now()
				now := c.Now()
				if after := time.Now(); now.Before(before) || after.Before(now) {
					return fmt.Errorf("PE %d: Ctx.Now %v outside the time.Now reads around it, %v and %v", c.Rank(), now, before, after)
				}
			}
			for i := 0; i < 3; i++ {
				start, wall := c.Now(), time.Now()
				c.Compute(d)
				if el, wallEl := c.Now().Sub(start), time.Since(wall); el < d || wallEl < d {
					return fmt.Errorf("PE %d: Compute(%v) returned after %v (%v on time.Now)", c.Rank(), d, el, wallEl)
				}
			}
			return nil
		})
	})
}
