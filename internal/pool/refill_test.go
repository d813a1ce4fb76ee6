package pool

import (
	"testing"
	"time"

	"sws/internal/ldeque"
	"sws/internal/shmem"
	"sws/internal/task"
)

// The adaptive refill batch climbs under observed executor starvation and
// decays back to the classic fixed batch when starvation stops.
func TestAdaptRefill(t *testing.T) {
	const min, max = 8, 64 // 2x workers=4, ring capacity 64
	// Bursty: every interval saw idle executors -> the batch doubles each
	// refill until it saturates at the ring capacity.
	target := min
	steps := 0
	for ; target < max; steps++ {
		next := adaptRefill(target, 100, min, max)
		if next <= target {
			t.Fatalf("starved refill did not grow: %d -> %d", target, next)
		}
		target = next
	}
	if steps > 4 {
		t.Fatalf("took %d doublings to reach %d from %d", steps, max, min)
	}
	if got := adaptRefill(max, 1, min, max); got != max {
		t.Fatalf("saturated target moved to %d", got)
	}
	// Steady: idle-free intervals decay halfway toward the minimum and
	// stick there, so a workload that stops bursting stops hoarding.
	for i := 0; target > min; i++ {
		next := adaptRefill(target, 0, min, max)
		if next >= target {
			t.Fatalf("idle-free refill did not decay: %d -> %d", target, next)
		}
		target = next
		if i > 16 {
			t.Fatal("decay never reached the minimum")
		}
	}
	if got := adaptRefill(min, 0, min, max); got != min {
		t.Fatalf("minimum target moved to %d", got)
	}
}

// A bursty workload — one generator task releasing waves of short leaves
// — must push the refill batch past the classic fixed 2x-workers batch,
// keeping the ring warm instead of letting executors starve between
// refills.
func TestAdaptiveRefillBurstyWorkload(t *testing.T) {
	const workers, bursts, burstSize = 4, 20, 48
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		leaf := reg.MustRegister("leaf", func(tc *TaskCtx, payload []byte) error {
			t0 := time.Now()
			for time.Since(t0) < 5*time.Microsecond {
			}
			return nil
		})
		var gen task.Handle
		gen = reg.MustRegister("gen", func(tc *TaskCtx, payload []byte) error {
			args, _ := task.ParseArgs(payload, 1)
			for i := 0; i < burstSize; i++ {
				if err := tc.Spawn(leaf, nil); err != nil {
					return err
				}
			}
			if args[0] > 1 {
				return tc.Spawn(gen, task.Args(args[0]-1))
			}
			return nil
		})
		p, err := New(c, reg, Config{Workers: workers, Seed: 1})
		if err != nil {
			return err
		}
		// The refill target is capped by the ring; the derived 16 slots
		// leave it no headroom over the fixed batch, so test on a deeper one.
		p.exec.dq = ldeque.MustNew(64)
		if err := p.Add(gen, task.Args(bursts)); err != nil {
			return err
		}
		if err := p.Run(); err != nil {
			return err
		}
		if got := p.exec.refillTarget; got <= 2*workers {
			t.Errorf("refill target %d never adapted past the fixed batch %d", got, 2*workers)
		}
		return nil
	})
}
