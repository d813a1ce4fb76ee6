package conformance

import (
	"fmt"
	"testing"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
)

// ExactlyOnceOverflow runs a two-level fan-out sized >4x the paper-default
// 8192-slot queue on 64-slot queues: the seeding PE's roots alone are five
// queues' worth, so most of them start in the owner's private deque, and
// every PE's producers keep overflowing theirs while thieves steal. Each
// task marks its own audit slot on rank 0; any slot not exactly 1 is a
// lost or doubled task.
func ExactlyOnceOverflow(t *testing.T, f Factory) {
	const queueCap = 64
	const producers = 320 // five 64-slot queues: the seed overflows
	const leavesPer = 102
	const total = producers + producers*leavesPer // 32960 > 4*8192
	run(t, f, 4, func(ctx *shmem.Ctx) error {
		slots := ctx.MustAlloc(total * shmem.WordSize)
		reg := pool.NewRegistry()
		leaf := reg.MustRegister("leaf", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			_, err = tc.Shmem().FetchAdd64(0, slots+shmem.Addr(args[0])*shmem.WordSize, 1)
			return err
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
		p, err := pool.New(ctx, reg, pool.Config{
			Protocol:      f.Protocol,
			Seed:          13,
			Workers:       f.workers(),
			QueueCapacity: queueCap,
		})
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
		if ctx.Rank() == 0 && st.TasksSpilled == 0 {
			return fmt.Errorf("seeding %d producers into a %d-slot queue spilled nothing — the oracle must force overflow",
				producers, queueCap)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return ctx.Barrier()
		}
		zero, multi, err := audit(ctx, slots, total)
		if err != nil {
			return err
		}
		if zero > 0 || multi > 0 {
			return fmt.Errorf("exactly-once violated across overflow: %d of %d tasks lost, %d doubled", zero, total, multi)
		}
		return ctx.Barrier()
	})
}
