package conformance

// Elastic-queue oracles: the invariants a growable queue must keep while
// it reseats between size classes and spills past its largest one. They
// run on every transport like the rest of the suite:
//
//   - ExactlyOnceUnderGrow — a pool workload sized several times the
//     starting ring forces multi-grow and spill on the seeding PE; every
//     task still executes exactly once (per-task audit slots).
//   - StealvalGeomConsistency — while the owner grows and shrinks under
//     churn, every stealval a thief observes names a class inside the
//     ladder with itasks/tail inside that class's ring, and the published
//     geometry word stays self-consistent with a monotone reseat count.
//   - ReseatStaleClaim — a scripted thief claims a block and withholds its
//     completion store across the owner's forced grow: the reseat must
//     wait (the thief's copy reads untorn memory) and the claimed, the
//     republished, and the locally drained tasks together account for
//     every pushed task exactly once.

import (
	"fmt"
	"testing"

	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// ExactlyOnceUnderGrow runs a two-level fan-out sized >4x the paper-default
// 8192-slot queue on rings that start at 64 slots, so the seeding PE walks
// the whole ladder (64 -> 512) and spills, and stealing PEs grow under
// real churn. Each task marks its own audit slot on rank 0; any slot not
// exactly 1 is a lost or doubled task.
func ExactlyOnceUnderGrow(t *testing.T, f Factory) {
	const startCap = 64
	const producers = 320 // > 4 ladders deep from 64: forces multi-grow at seed
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
			Protocol:      pool.SWS,
			Seed:          13,
			Workers:       f.workers(),
			QueueCapacity: startCap,
			Growable:      true,
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
		if ctx.Rank() == 0 && st.QueueGrows < 2 {
			return fmt.Errorf("seeding %d producers into a %d-slot ring grew only %d times — the oracle must force multi-grow",
				producers, startCap, st.QueueGrows)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() != 0 {
			return ctx.Barrier()
		}
		var zero, multi int
		for i := 0; i < total; i++ {
			v, err := ctx.Load64(0, slots+shmem.Addr(i)*shmem.WordSize)
			if err != nil {
				return err
			}
			switch {
			case v == 0:
				zero++
			case v > 1:
				multi++
			}
		}
		if zero > 0 || multi > 0 {
			return fmt.Errorf("exactly-once violated across grow: %d of %d tasks lost, %d doubled", zero, total, multi)
		}
		return ctx.Barrier()
	})
}

// StealvalGeomConsistency churns an elastic queue through grows and
// shrinks while a thief probes the stealval and the geometry word: every
// valid stealval must name a ladder class whose ring contains its itasks
// and tail, and every geometry word must decode to a real class with that
// class's capacity and a reseat counter that never runs backwards.
func StealvalGeomConsistency(t *testing.T, f Factory) {
	const startCap = 16
	const maxGrowth = 2
	run(t, f, 2, func(ctx *shmem.Ctx) error {
		q, err := core.NewQueue(ctx, core.Options{
			Epochs: true, Capacity: startCap, Growable: true, MaxGrowth: maxGrowth,
		})
		if err != nil {
			return err
		}
		stop := ctx.MustAlloc(shmem.WordSize)
		ack := ctx.MustAlloc(shmem.WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// Owner churn: overfill past the starting class (grow), share,
			// drain to empty (shrink candidates), localize, repeat.
			n := 0
			for round := 0; round < 30; round++ {
				for i := 0; i < 40; i++ {
					if err := q.Push(dummyTask(n)); err != nil {
						return err
					}
					n++
				}
				if _, err := q.Release(); err != nil {
					return err
				}
				for {
					_, ok, err := q.Pop()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
				}
				if _, err := q.Acquire(); err != nil {
					return err
				}
				// An extra Release on the drained queue is where maybeShrink
				// runs; it is a no-op whenever epochs are still draining.
				if _, err := q.Release(); err != nil {
					return err
				}
				ctx.Relax()
			}
			if err := ctx.Store64(1, stop, 1); err != nil {
				return err
			}
			if _, err := ctx.WaitUntil64(ack, shmem.CmpEQ, 1, waitTimeout); err != nil {
				return err
			}
			// The thief is quiet now: empty the queue (what it left of the
			// shared blocks comes back through Acquire — how much that is
			// depends on how fast the thief ran, and an occupied ring never
			// shrinks), drain the epochs and fold the ladder back down, so
			// the sweep provably exercised both directions.
			for {
				for {
					_, ok, err := q.Pop()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
				}
				if n, err := q.Acquire(); err != nil {
					return err
				} else if n == 0 {
					break
				}
			}
			for q.Stats().Epochs > 1 {
				if err := q.Progress(); err != nil {
					return err
				}
				if werr := ctx.Err(); werr != nil {
					return werr
				}
				ctx.Relax()
			}
			for i := 0; i <= maxGrowth; i++ {
				if _, err := q.Release(); err != nil {
					return err
				}
			}
			st := q.Stats()
			if st.Grows == 0 {
				return fmt.Errorf("churn never grew the queue — the oracle checked nothing")
			}
			if st.Shrinks == 0 {
				return fmt.Errorf("drained queue never shrank (class %d, capacity %d after %d grows)",
					st.Class, st.Capacity, st.Grows)
			}
			return ctx.Barrier()
		}
		// Thief: interleave raw probes of both published words with real
		// steals, checking every decoded view against the immutable ladder.
		format := q.Format()
		lastReseats := -1
		checks := 0
		for {
			w, err := ctx.Load64(0, q.StealvalAddr())
			if err != nil {
				return err
			}
			if v := format.Unpack(w); v.Valid {
				if v.Class < 0 || v.Class >= q.Classes() {
					return fmt.Errorf("stealval %#x names class %d, ladder has %d", w, v.Class, q.Classes())
				}
				cap, err := q.ClassCapacity(v.Class)
				if err != nil {
					return err
				}
				if v.ITasks < 0 || v.ITasks > cap {
					return fmt.Errorf("stealval %#x advertises itasks %d beyond class-%d capacity %d", w, v.ITasks, v.Class, cap)
				}
				if v.Tail < 0 || v.Tail >= cap {
					return fmt.Errorf("stealval %#x advertises tail %d outside class-%d ring [0, %d)", w, v.Tail, v.Class, cap)
				}
			}
			gw, err := ctx.Load64(0, q.GeomAddr())
			if err != nil {
				return err
			}
			g := core.UnpackGeom(gw)
			if g.Class < 0 || g.Class >= q.Classes() {
				return fmt.Errorf("geometry word %#x names class %d, ladder has %d", gw, g.Class, q.Classes())
			}
			cap, err := q.ClassCapacity(g.Class)
			if err != nil {
				return err
			}
			if g.Capacity != cap {
				return fmt.Errorf("geometry word %#x says capacity %d, class %d holds %d", gw, g.Capacity, g.Class, cap)
			}
			if g.Reseats < lastReseats {
				return fmt.Errorf("reseat counter ran backwards: %d after %d", g.Reseats, lastReseats)
			}
			lastReseats = g.Reseats
			if _, _, err := q.Steal(0); err != nil {
				return err
			}
			checks++
			s, err := ctx.Load64(1, stop)
			if err != nil {
				return err
			}
			if s == 1 && checks >= 50 {
				break
			}
			ctx.Relax()
		}
		if err := ctx.Store64(0, ack, 1); err != nil {
			return err
		}
		return ctx.Barrier()
	})
}

// ReseatStaleClaim scripts the race the reseat protocol exists to close:
// a thief's fetch-add claim lands before the owner's epoch-closing swap,
// the thief copies its block and only then acknowledges, while the owner
// is blocked in a forced grow. The owner's reseat must wait for that
// acknowledgement (so the thief's copy reads untorn memory), and the
// stale claim, the republished remainder, and the owner's local drain
// must together account for every pushed task exactly once.
func ReseatStaleClaim(t *testing.T, f Factory) {
	const startCap = 8
	const total = 16
	const idBase = 100
	run(t, f, 2, func(ctx *shmem.Ctx) error {
		q, err := core.NewQueue(ctx, core.Options{
			Epochs: true, Capacity: startCap, Growable: true, MaxGrowth: 2,
		})
		if err != nil {
			return err
		}
		claimed := ctx.MustAlloc(shmem.WordSize)  // thief -> owner: claim made
		reseated := ctx.MustAlloc(shmem.WordSize) // owner -> thief: grow done
		done := ctx.MustAlloc(shmem.WordSize)     // thief -> owner: results written
		// Thief-stolen ids land on rank 0: [0] count, [1..] ids.
		results := ctx.MustAlloc((total + 1) * shmem.WordSize)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			for i := 0; i < 6; i++ {
				if err := q.Push(dummyTask(idBase + i)); err != nil {
					return err
				}
			}
			moved, err := q.Release()
			if err != nil {
				return err
			}
			if moved == 0 {
				return fmt.Errorf("release shared nothing")
			}
			if _, err := ctx.WaitUntil64(claimed, shmem.CmpEQ, 1, waitTimeout); err != nil {
				return err
			}
			// Overfill the starting ring while the claim is outstanding. The
			// grow this forces must block inside the reseat until the thief's
			// withheld completion store arrives.
			for i := 6; i < total; i++ {
				if err := q.Push(dummyTask(idBase + i)); err != nil {
					return err
				}
			}
			st := q.Stats()
			if st.Grows == 0 {
				return fmt.Errorf("overfilling a %d-slot ring with %d tasks never grew it", startCap, total)
			}
			if err := ctx.Store64(1, reseated, 1); err != nil {
				return err
			}
			if _, err := ctx.WaitUntil64(done, shmem.CmpEQ, 1, waitTimeout); err != nil {
				return err
			}
			// Drain everything still owner-visible and audit the union.
			seen := make([]int, total)
			for iter := 0; ; iter++ {
				d, ok, err := q.Pop()
				if err != nil {
					return err
				}
				if ok {
					id, err := decodeID(d)
					if err != nil {
						return err
					}
					seen[id-idBase]++
					continue
				}
				if _, err := q.Acquire(); err != nil {
					return err
				}
				if err := q.Progress(); err != nil {
					return err
				}
				if q.LocalCount() == 0 && q.SharedAvail() == 0 {
					break
				}
				if iter > 10000 {
					return fmt.Errorf("owner drain did not quiesce: %d local, %d shared", q.LocalCount(), q.SharedAvail())
				}
				ctx.Relax()
			}
			cnt, err := ctx.Load64(0, results)
			if err != nil {
				return err
			}
			for i := uint64(0); i < cnt; i++ {
				id, err := ctx.Load64(0, results+shmem.Addr(1+i)*shmem.WordSize)
				if err != nil {
					return err
				}
				if id < idBase || id >= idBase+total {
					return fmt.Errorf("thief reported stolen id %d outside [%d, %d) — torn or corrupt copy", id, idBase, idBase+total)
				}
				seen[id-idBase]++
			}
			for i, n := range seen {
				if n != 1 {
					return fmt.Errorf("task %d executed-or-drained %d times (want exactly 1)", idBase+i, n)
				}
			}
			return ctx.Barrier()
		}
		// Thief: raw claim, then copy and acknowledge as separate steps so
		// the acknowledgement is provably the thing the reseat waits on.
		// A freshly constructed queue advertises a valid-but-empty
		// stealval, so wait for the owner's Release to publish a non-empty
		// block first — claiming the empty word would burn the scripted
		// attempt on a 0-task block (seen on shm, where the thief outruns
		// the owner's first push).
		for {
			w, err := ctx.Load64(0, q.StealvalAddr())
			if err != nil {
				return err
			}
			if v := q.Format().Unpack(w); v.Valid && v.ITasks > 0 {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			ctx.Relax()
		}
		old, err := ctx.FetchAdd64(0, q.StealvalAddr(), core.AstealsUnit)
		if err != nil {
			return err
		}
		v := q.Format().Unpack(old)
		if !v.Valid {
			return fmt.Errorf("thief fetched invalid stealval %#x", old)
		}
		if v.ITasks == 0 {
			return fmt.Errorf("claim fetched an empty block after a non-empty advertisement")
		}
		if v.Class != 0 {
			return fmt.Errorf("first claim fetched class %d, want the starting class 0", v.Class)
		}
		if err := ctx.Store64(0, claimed, 1); err != nil {
			return err
		}
		// The dangerous read: copy the claimed block out of the old region.
		// The owner may already be blocked in its reseat; this memory must
		// still hold exactly the claimed tasks.
		tasks, err := q.CopyClaimedBlock(0, v)
		if err != nil {
			return err
		}
		if len(tasks) == 0 {
			return fmt.Errorf("claim on a %d-task block copied nothing", v.ITasks)
		}
		n := uint64(0)
		for _, d := range tasks {
			id, err := decodeID(d)
			if err != nil {
				return err
			}
			if err := ctx.Store64(0, results+shmem.Addr(1+n)*shmem.WordSize, uint64(id)); err != nil {
				return err
			}
			n++
		}
		// Only now release the owner: the completion store for the fetched
		// epoch and attempt.
		if err := ctx.Store64NBI(0, q.CompletionSlotAddr(v.Epoch, int(v.Asteals)), uint64(len(tasks))); err != nil {
			return err
		}
		if err := ctx.Quiet(); err != nil {
			return err
		}
		if _, err := ctx.WaitUntil64(reseated, shmem.CmpEQ, 1, waitTimeout); err != nil {
			return err
		}
		// One real steal against the post-reseat geometry: it must decode
		// cleanly from the class the new stealval names.
		stolen, outcome, err := q.Steal(0)
		if err != nil {
			return err
		}
		if outcome == wsq.Stolen {
			for _, d := range stolen {
				id, err := decodeID(d)
				if err != nil {
					return err
				}
				if err := ctx.Store64(0, results+shmem.Addr(1+n)*shmem.WordSize, uint64(id)); err != nil {
					return err
				}
				n++
			}
		}
		if err := ctx.Store64(0, results, n); err != nil {
			return err
		}
		if err := ctx.Store64(0, done, 1); err != nil {
			return err
		}
		return ctx.Barrier()
	})
}

// decodeID recovers the integer tag dummyTask packed into a descriptor.
func decodeID(d task.Desc) (int, error) {
	args, err := task.ParseArgs(d.Payload, 1)
	if err != nil {
		return 0, fmt.Errorf("stolen payload undecodable: %w", err)
	}
	return int(args[0]), nil
}
