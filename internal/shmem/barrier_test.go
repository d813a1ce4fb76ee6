package shmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneBarrier runs the one barrier on every in-process wall-clock world:
// an oversubscribed world passes many generations without counting an op,
// faults on the data path never reach the barrier's words, and a failed or
// dead member unwinds the waiters instead of hanging them.
func TestOneBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var everyOp []Op
	for op := Op(0); op < numOps; op++ {
		everyOp = append(everyOp, op)
	}
	gens := func(n int) func(*Ctx) error {
		return func(c *Ctx) error {
			for g := 0; g < n; g++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	gaveUp := errors.New("gave up")
	transports(t, func(t *testing.T, kind TransportKind) {
		var arrived atomic.Int64
		drops := &DropFaults{Fraction: 1, Ops: everyOp}
		isolated := &Partition{}
		isolated.Split([]int{1})
		for _, tc := range []struct {
			name string
			cfg  Config
			body func(*Ctx) error
			want error // nil: Run succeeds
		}{
			{"oversubscribed", Config{NumPEs: 16}, func(c *Ctx) error {
				const n = 200
				for g := 1; g <= n; g++ {
					arrived.Add(1)
					before := c.Counters().Snapshot()
					if err := c.Barrier(); err != nil {
						return err
					}
					if after := c.Counters().Snapshot(); after != before {
						return fmt.Errorf("generation %d: the barrier counted ops (%v)", g, after.Sub(before))
					}
					if got := arrived.Load(); got < int64(16*g) {
						return fmt.Errorf("generation %d: released after %d arrivals, want >= %d", g, got, 16*g)
					}
				}
				return nil
			}, nil},
			{"drop every op", Config{NumPEs: 4, Fault: drops}, func(c *Ctx) error {
				if err := gens(20)(c); err != nil {
					return err
				}
				if n := drops.dropped.Load(); n != 0 {
					return fmt.Errorf("the fault injector saw %d barrier ops", n)
				}
				return nil
			}, nil},
			{"partition isolates rank 1", Config{NumPEs: 4, Fault: isolated}, gens(20), nil},
			{"failed member", Config{NumPEs: 3}, func(c *Ctx) error {
				if c.Rank() == 1 {
					return gaveUp
				}
				if err := c.Barrier(); err == nil {
					return fmt.Errorf("PE %d passed a barrier PE 1 never reached", c.Rank())
				}
				return nil
			}, gaveUp},
			{"dead member", Config{NumPEs: 3, DeadAfter: 20 * time.Millisecond}, func(c *Ctx) error {
				switch c.Rank() {
				case 1:
					return unwindWhenKilled(c)
				case 0:
					c.w.Kill(1)
				}
				start := time.Now()
				err := c.Barrier()
				if !errors.Is(err, ErrPeerDead) {
					return fmt.Errorf("PE %d: barrier over a dead member: got %v, want ErrPeerDead", c.Rank(), err)
				}
				if el := time.Since(start); el > time.Second {
					return fmt.Errorf("PE %d: barrier took %v to unwind", c.Rank(), el)
				}
				return nil
			}, ErrPEKilled},
		} {
			t.Run(tc.name, func(t *testing.T) {
				tc.cfg.Transport = kind
				w, err := NewWorld(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = w.Run(tc.body)
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("Run: got %v, want %v", err, tc.want)
				}
			})
		}
	})
}
