package shmem

import (
	"fmt"
	"testing"
	"time"
)

// TestBriefWaitNeverBacksOff: a Wait's first waitYoung polls in a row only
// yield; the back-off, every 64th step of which sleeps, starts with the
// next poll, and Reset makes the wait young again.
func TestBriefWaitNeverBacksOff(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 1, Transport: TransportLocal})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Ctx) error {
		wait := c.NewWait(0)
		pauses0, yields0 := c.Pauses(), c.Yields()
		young := func(round string) error {
			for n := 0; n < waitYoung; n++ {
				if wait.Poll() {
					return fmt.Errorf("%s: a wait without a timeout expired", round)
				}
			}
			return nil
		}
		if err := young("first"); err != nil {
			return err
		}
		if p, y := c.Pauses()-pauses0, c.Yields()-yields0; p != 0 || y != waitYoung {
			return fmt.Errorf("%d polls of a young wait: %d back-off steps, %d yields; want 0, %d", waitYoung, p, y, waitYoung)
		}
		wait.Poll()
		if p := c.Pauses() - pauses0; p != 1 {
			return fmt.Errorf("poll %d of a wait: %d back-off steps, want 1", waitYoung, p)
		}
		wait.Reset()
		if err := young("after Reset"); err != nil {
			return err
		}
		if p := c.Pauses() - pauses0; p != 1 {
			return fmt.Errorf("%d polls after Reset: %d back-off steps in all, want still 1", waitYoung, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitExpires: a Wait with a timeout reports expiry no earlier than the
// deadline its first poll set, within waitYoung polls of it on a wall
// clock (which it reads once in waitYoung polls) and at the first poll past
// it under the sim (every poll, on the virtual clock).
func TestWaitExpires(t *testing.T) {
	const timeout = 2 * time.Millisecond
	for _, kind := range []TransportKind{TransportLocal, TransportSim} {
		w, err := NewWorld(Config{NumPEs: 1, Transport: kind, Sim: SimOptions{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Ctx) error {
			wait := c.NewWait(timeout)
			start := c.Now()
			wait.Poll()
			// The deadline lies between start+timeout and this bound; the
			// virtual clock moves only at yields, so under the sim the
			// first Poll read start itself.
			latest := c.Now().Add(timeout)
			if kind == TransportSim {
				latest = start.Add(timeout)
			}
			passedAt := -1
			for n := 1; ; n++ {
				now := c.Now()
				if passedAt < 0 && now.After(latest) {
					passedAt = n
				}
				if !wait.Poll() {
					continue
				}
				switch {
				case !now.After(start.Add(timeout)):
					return fmt.Errorf("expired at poll %d, %v after the first, before the timeout %v", n, now.Sub(start), timeout)
				case kind == TransportSim && passedAt >= 0 && n != passedAt:
					return fmt.Errorf("sim: expired at poll %d, the deadline passed at poll %d", n, passedAt)
				case passedAt >= 0 && n-passedAt > waitYoung:
					return fmt.Errorf("expired at poll %d, %d polls after the deadline passed (want <= %d)", n, n-passedAt, waitYoung)
				}
				return nil
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}
