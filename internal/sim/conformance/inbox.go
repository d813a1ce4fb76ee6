package conformance

import (
	"fmt"
	"testing"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
)

// InboxExactlyOnce drives the remote-spawn inbox the way nothing else in
// the suite does: four senders flood one receiver's two-slot ring, so
// tickets a full lap apart contend for the same slot on nearly every
// send. Each task marks its own audit slot on rank 0 with a blocking
// fetch-add; after the run every slot must read exactly 1 — a slot at 0
// is a spawn the ring lost (two senders wrote one slot, the owner drained
// it once), a slot above 1 a task delivered twice.
func InboxExactlyOnce(t *testing.T, f Factory) {
	inboxExactlyOnce(t, f, 2, 24) // 96 sends through 2 slots: 48 laps
}

// InboxBatchesWrap is InboxExactlyOnce through a three-slot ring, which
// is also the senders' batch cap: a body's spawns leave in batches of up
// to three, so most batches start mid-ring and split at its end into two
// spans, each with its own head, and every ring lap is a few batches.
func InboxBatchesWrap(t *testing.T, f Factory) {
	inboxExactlyOnce(t, f, 3, 30) // 120 sends through 3 slots: 40 laps
}

func inboxExactlyOnce(t *testing.T, f Factory, mailboxSlots, perSender int) {
	const senders = 4
	total := senders * perSender
	run(t, f, senders+1, func(ctx *shmem.Ctx) error {
		slots := ctx.MustAlloc(total * shmem.WordSize)
		reg := pool.NewRegistry()
		probe := reg.MustRegister("probe", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			_, err = tc.Shmem().FetchAdd64(0, slots+shmem.Addr(args[0])*shmem.WordSize, 1)
			return err
		})
		driver := reg.MustRegister("driver", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			for i := uint64(0); i < uint64(perSender); i++ {
				if err := tc.SpawnOn(0, probe, task.Args(args[0]*uint64(perSender)+i)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := pool.New(ctx, reg, pool.Config{Protocol: f.Protocol, Seed: 11, MailboxSlots: mailboxSlots, Workers: f.workers()})
		if err != nil {
			return err
		}
		if ctx.Rank() > 0 {
			if err := p.Add(driver, task.Args(uint64(ctx.Rank()-1))); err != nil {
				return err
			}
		}
		if err := p.Run(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// Termination means every execution's blocking fetch-add has
			// landed, so the audit reads stable memory.
			zero, multi, err := audit(ctx, slots, total)
			if err != nil {
				return err
			}
			if zero > 0 || multi > 0 {
				return fmt.Errorf("inbox exactly-once violated: %d of %d tasks lost, %d doubled", zero, total, multi)
			}
		}
		return ctx.Barrier()
	})
}
