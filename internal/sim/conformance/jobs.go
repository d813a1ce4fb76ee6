package conformance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
)

// ExactlyOncePerJob is the job-epoch isolation oracle: one warm fleet
// serves a sequence of jobs — back-to-back, then interleaved from
// concurrent submitters — and every task audits itself into a
// job-scoped slot block on rank 0's heap. The invariants:
//
//   - exactly-once per job: after all jobs, every audit slot holds 1 —
//     no job lost a task, none executed one twice, and no stale task
//     from job A leaked into job B's block;
//   - epoch confinement: each task compares the pool's live JobSeq
//     against the epoch its job was seeded under (recorded by Seed in a
//     per-job heap word) and fails the world on mismatch, so a task
//     executing under a later job's termination wave is caught at the
//     moment it happens, not post-hoc;
//   - warm start: the transport attaches exactly NumPEs times across
//     the whole sequence.
//
// Cross-PE synchronization goes through shmem primitives only, so the
// oracle means the same thing on local, tcp, shm, and the lockstep sim
// (where the fleet's await loop polls through a Wait).
func ExactlyOncePerJob(t *testing.T, f Factory) {
	const peCount = 4
	const depth = 3                 // binary tree: 2^(depth+1)-1 nodes
	const perJob = 1<<(depth+1) - 1 // 15
	const serialJobs = 3
	const interleavedJobs = 3
	const jobs = serialJobs + interleavedJobs

	w, err := f.New(peCount, nil)
	if err != nil {
		t.Fatalf("building %s world: %v", f.Name, err)
	}

	// Symmetric-heap addresses are identical on every PE; the atomics
	// only publish them race-free from concurrent PE warmups.
	var execSlots, seqSlots atomic.Uint64
	var nodeH, auditH atomic.Uint32

	register := func(rank int, reg *pool.Registry) error {
		h, err := reg.Register("job-node", func(tc *pool.TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 3)
			if err != nil {
				return err
			}
			jobIdx, nodeIdx, rem := args[0], args[1], args[2]
			c := tc.Shmem()
			// Epoch confinement: the task must run under the exact epoch
			// its job was seeded for.
			wantSeq, err := c.Load64(0, shmem.Addr(seqSlots.Load())+shmem.Addr(jobIdx)*shmem.WordSize)
			if err != nil {
				return err
			}
			if got := tc.JobSeq(); got != wantSeq {
				return fmt.Errorf("task of job block %d executed under epoch %d, want %d", jobIdx, got, wantSeq)
			}
			slot := shmem.Addr(execSlots.Load()) + shmem.Addr(jobIdx*perJob+nodeIdx)*shmem.WordSize
			if _, err := c.FetchAdd64(0, slot, 1); err != nil {
				return err
			}
			if rem == 0 {
				return nil
			}
			h := task.Handle(nodeH.Load())
			for i := uint64(0); i < 2; i++ {
				if err := tc.Spawn(h, task.Args(jobIdx, 2*nodeIdx+1+i, rem-1)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		nodeH.Store(uint32(h))
		h, err = reg.Register("job-audit", func(tc *pool.TaskCtx, payload []byte) error {
			c := tc.Shmem()
			base := shmem.Addr(execSlots.Load())
			for i := 0; i < jobs*perJob; i++ {
				v, err := c.Load64(0, base+shmem.Addr(i)*shmem.WordSize)
				if err != nil {
					return err
				}
				if v != 1 {
					return fmt.Errorf("exactly-once-per-job violated: job block %d slot %d executed %d times",
						i/perJob, i%perJob, v)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		auditH.Store(uint32(h))
		return nil
	}

	fleet, err := pool.NewFleet(w, pool.FleetOptions{
		Pool:     pool.Config{Protocol: f.Protocol, Seed: 13, Workers: f.workers()},
		Register: register,
		Warmup: func(c *shmem.Ctx, p *pool.Pool) error {
			execSlots.Store(uint64(c.MustAlloc(jobs * perJob * shmem.WordSize)))
			seqSlots.Store(uint64(c.MustAlloc(jobs * shmem.WordSize)))
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s fleet: %v", f.Name, err)
	}
	defer fleet.Close()

	jobFor := func(jobIdx uint64) pool.Job {
		return pool.Job{Seed: func(p *pool.Pool, rank int) error {
			if rank != 0 {
				return nil
			}
			// Record the epoch this job will run under (RunJob increments
			// the sequence right after seeding); the blocking store
			// completes before the job's opening barrier, so every PE's
			// tasks see it.
			seqAddr := shmem.Addr(seqSlots.Load()) + shmem.Addr(jobIdx)*shmem.WordSize
			if err := p.Shmem().Store64(0, seqAddr, p.JobSeq()+1); err != nil {
				return err
			}
			return p.Add(task.Handle(nodeH.Load()), task.Args(jobIdx, 0, depth))
		}}
	}

	runJob := func(jobIdx uint64) error {
		run, err := fleet.Run(jobFor(jobIdx))
		if err != nil {
			return fmt.Errorf("job block %d: %w", jobIdx, err)
		}
		if got := run.Total().TasksExecuted; got != perJob {
			return fmt.Errorf("job block %d: per-job stats report %d tasks, want %d", jobIdx, got, perJob)
		}
		return nil
	}

	// Phase 1: back-to-back jobs on the warm fleet.
	for j := uint64(0); j < serialJobs; j++ {
		if err := runJob(j); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	// Phase 2: interleaved submissions — concurrent tenants racing into
	// the fleet, which must serialize them into exclusive epochs.
	var wg sync.WaitGroup
	errs := make([]error, interleavedJobs)
	for j := 0; j < interleavedJobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = runJob(uint64(serialJobs + j))
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	// Final epoch: the audit job sweeps every slot of every block.
	if _, err := fleet.Run(pool.Job{Seed: func(p *pool.Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(task.Handle(auditH.Load()), nil)
	}}); err != nil {
		t.Fatalf("%s: audit job: %v", f.Name, err)
	}
	if got := w.Attaches(); got != peCount {
		t.Fatalf("%s: %d transport attaches across %d jobs, want %d (warm start)", f.Name, got, jobs+1, peCount)
	}
	if err := fleet.Close(); err != nil {
		t.Fatalf("%s: fleet close: %v", f.Name, err)
	}
}
