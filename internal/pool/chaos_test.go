package pool

import (
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
)

// chaosWorkload runs a full recursive workload with fault injection and
// asserts that exactly the expected number of leaves execute.
func chaosWorkload(t *testing.T, fault shmem.FaultInjector, cfg Config, depth uint64) {
	t.Helper()
	var leaves atomic.Int64
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, HeapBytes: 8 << 20, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
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
		p, err := New(c, reg, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(depth)); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 1<<depth {
		t.Fatalf("leaves = %d, want %d", leaves.Load(), 1<<depth)
	}
}

// Delayed steal-completion notifications must never lose or duplicate
// work — this is the window completion epochs exist for.
func TestChaosDelayedCompletions(t *testing.T) {
	fault := &shmem.DelayFaults{Fraction: 0.5, MaxDelay: 500 * time.Microsecond, Seed: 99}
	chaosWorkload(t, fault, Config{Seed: 5, QueueCapacity: 1024}, 11)
}

// The same chaos without epochs (V1): the owner must wait out the delays
// at queue resets, but correctness must hold.
func TestChaosDelayedCompletionsNoEpochs(t *testing.T) {
	fault := &shmem.DelayFaults{Fraction: 0.5, MaxDelay: 300 * time.Microsecond, Seed: 7}
	chaosWorkload(t, fault, Config{Seed: 5, NoEpochs: true, QueueCapacity: 1024}, 10)
}

// Duplicated (fabric-retransmitted) completion stores must be harmless:
// the completion value is idempotent (the block size), so re-delivery
// cannot corrupt reclaim accounting.
func TestChaosDuplicatedStores(t *testing.T) {
	fault := &shmem.DuplicateFaults{Fraction: 0.5, Seed: 3}
	chaosWorkload(t, fault, Config{Seed: 5}, 11)
}

// SDC under delayed deferred-copy acknowledgements.
func TestChaosSDCDelayedAcks(t *testing.T) {
	fault := &shmem.DelayFaults{Fraction: 0.5, MaxDelay: 500 * time.Microsecond, Seed: 31}
	chaosWorkload(t, fault, Config{Protocol: SDC, Seed: 5, QueueCapacity: 1024}, 11)
}

// Everything at once: delays on a workload that also uses remote spawns.
func TestChaosKitchenSink(t *testing.T) {
	fault := &shmem.DelayFaults{Fraction: 0.3, MaxDelay: 200 * time.Microsecond, Seed: 17}
	var ran atomic.Int64
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, HeapBytes: 8 << 20, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	const fanout = 300
	err = w.Run(func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("probe", func(tc *TaskCtx, payload []byte) error {
			ran.Add(1)
			return nil
		})
		driver := reg.MustRegister("driver", func(tc *TaskCtx, payload []byte) error {
			for i := 0; i < fanout; i++ {
				if err := tc.SpawnOn(i%tc.NumPEs(), h, nil); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 5})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(driver, nil); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != fanout {
		t.Fatalf("ran %d probes, want %d", ran.Load(), fanout)
	}
}
