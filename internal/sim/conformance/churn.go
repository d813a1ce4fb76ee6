package conformance

// Elastic-membership oracle: the exactly-once guarantee must survive
// voluntary membership churn. ExactlyOnceUnderChurn starts a world with
// its highest rank parked, then — at seed-derived points mid-run — joins
// that rank and drains a seed-derived middle rank, both transitions
// racing live steals. Unlike the kill oracle, churn is voluntary and
// loss-free, so the check stays strict: every task executes exactly
// once, zero tasks lost, no degraded termination, and both transitions
// complete (the wave re-forms over the new membership rather than
// terminating around a half-drained rank).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
)

// ExactlyOnceUnderChurn runs a producer/leaf workload over a 4-PE world
// whose rank 3 starts parked. Leaf executions are counted globally; at a
// seed-derived count the parked rank joins, and at a later seed-derived
// count a middle rank begins draining — both from task bodies, so the
// transitions land while work is provably in flight on every transport
// (and at a deterministic point under the sim scheduler). Each task
// marks its own audit slot on rank 0; any slot not exactly 1 is a lost
// or doubled task.
func ExactlyOnceUnderChurn(t *testing.T, f Factory, seed int64) {
	const peCount = 4
	const producers = 48
	const leavesPer = 20
	const total = producers + producers*leavesPer
	u := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	joinRank := peCount - 1 // SetInitialMembers parks the highest ranks
	drainRank := 1 + int(u%uint64(peCount-2))
	joinAt := int64(40 + u>>8%64)             // leaves executed before the join
	drainAt := joinAt + int64(80+(u>>16)%128) // and before the drain

	w, err := f.New(peCount, nil)
	if err != nil {
		t.Fatalf("building %s world: %v", f.Name, err)
	}
	if err := w.SetInitialMembers(peCount - 1); err != nil {
		t.Fatal(err)
	}
	var leaves atomic.Int64
	var joinOnce, drainOnce sync.Once
	// slowWhile stretches a leaf that runs while a transition is pending.
	// The whole run is about a millisecond of work: on a loaded box the
	// thread running the transitioning rank can sit descheduled for all of
	// what is left, wake after the last task, and leave with the transition
	// pending — an oracle that checked nothing. 200 µs of simulated work
	// per leaf makes the hundreds of leaves still to run outlast any
	// scheduling hiccup, so the transition completes with work in flight,
	// which is what the oracle is for; once it has, leaves run at full
	// speed again. Not under the lockstep sim, which is deterministic.
	slowWhile := func(tc *pool.TaskCtx, pending bool) {
		if pending && !f.Lockstep {
			tc.Compute(200 * time.Microsecond)
		}
	}
	runErr := w.Run(func(ctx *shmem.Ctx) error {
		slots := ctx.MustAlloc(total * shmem.WordSize)
		lost := ctx.MustAlloc(shmem.WordSize)
		degraded := ctx.MustAlloc(shmem.WordSize)
		reg := pool.NewRegistry()
		leaf := reg.MustRegister("leaf", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if _, err := tc.Shmem().FetchAdd64(0, slots+shmem.Addr(args[0])*shmem.WordSize, 1); err != nil {
				return err
			}
			lv := w.Live()
			n := leaves.Add(1)
			switch n {
			case joinAt:
				joinOnce.Do(func() { _ = lv.BeginJoin(joinRank) })
			case drainAt:
				drainOnce.Do(func() { _ = lv.BeginDrain(drainRank) })
			}
			slowWhile(tc, n >= joinAt && !lv.Member(joinRank))
			slowWhile(tc, n >= drainAt && lv.Drains() == 0)
			return nil
		})
		var producer task.Handle
		producer = reg.MustRegister("producer", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 2)
			if err != nil {
				return err
			}
			id, base := args[0], args[1]
			if _, err := tc.Shmem().FetchAdd64(0, slots+shmem.Addr(id)*shmem.WordSize, 1); err != nil {
				return err
			}
			for j := uint64(0); j < leavesPer; j++ {
				if err := tc.Spawn(leaf, task.Args(base+j)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := pool.New(ctx, reg, pool.Config{Protocol: pool.SWS, Seed: seed, Workers: f.workers()})
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i := 0; i < producers; i++ {
				base := uint64(producers + i*leavesPer)
				if err := p.Add(producer, task.Args(uint64(i), base)); err != nil {
					return err
				}
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		st := p.Stats()
		if _, err := ctx.FetchAdd64(0, lost, st.TasksLost); err != nil {
			return err
		}
		if st.Degraded {
			if _, err := ctx.FetchAdd64(0, degraded, 1); err != nil {
				return err
			}
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return ctx.Barrier()
		}
		lv := w.Live()
		if lv.Joins() < 1 || lv.Drains() < 1 {
			return fmt.Errorf("churn never completed: %d joins, %d drains (join@%d drain@%d of %d leaves) — the oracle checked nothing",
				lv.Joins(), lv.Drains(), joinAt, drainAt, producers*leavesPer)
		}
		if !lv.Member(joinRank) {
			return fmt.Errorf("joined rank %d finished in state %v, want a member", joinRank, lv.State(joinRank))
		}
		if got := lv.State(drainRank); got != shmem.PeerParked {
			return fmt.Errorf("drained rank %d finished in state %v, want parked", drainRank, got)
		}
		if v, err := ctx.Load64(0, lost); err != nil {
			return err
		} else if v != 0 {
			return fmt.Errorf("voluntary churn lost %d tasks, drain must be loss-free", v)
		}
		if v, err := ctx.Load64(0, degraded); err != nil {
			return err
		} else if v != 0 {
			return fmt.Errorf("%d PEs report degraded termination under voluntary churn", v)
		}
		zero, multi, err := audit(ctx, slots, total)
		if err != nil {
			return err
		}
		if zero > 0 || multi > 0 {
			return fmt.Errorf("exactly-once violated across churn: %d of %d tasks lost, %d doubled", zero, total, multi)
		}
		return ctx.Barrier()
	})
	if runErr != nil {
		t.Fatalf("%s seed %d (join %d, drain %d): %v\nrepro: go test ./internal/sim/conformance -run 'TestChurnConformance/%s' -churn.seed=%d",
			f.Name, seed, joinRank, drainRank, runErr, f.Name, seed)
	}
}
