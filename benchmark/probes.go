package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/bench"
	"sws/internal/core"
	"sws/internal/ldeque"
	"sws/internal/pool"
	"sws/internal/serve"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/term"
	"sws/internal/uts"
	"sws/internal/wsq"
)

// Probes time calls into one layer's public functions from outside it, on
// an otherwise idle 2-PE world. Each reports the best of probeBatches
// batch means: the floor of what the call costs on this machine, which is
// what a change to the layer moves, with scheduling noise cut off.
const probeBatches = 5

// bestOf runs fn, which performs n operations, probeBatches times and
// returns the lowest mean time per operation, in nanoseconds.
func bestOf(n int, fn func() error) (float64, error) {
	var best float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = lowest(b, best, time.Since(start), n)
	}
	return best, nil
}

// lowest folds batch b's mean (total over n operations, in nanoseconds)
// into the best mean so far. Means stay fractional: a per-operation time
// truncated to whole nanoseconds would read the same on every run.
func lowest(b int, best float64, total time.Duration, n int) float64 {
	if mean := float64(total) / float64(n); b == 0 || mean < best {
		return mean
	}
	return best
}

// repeat calls op n times, stopping at the first error.
func repeat(n int, op func(i int) error) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// probeWorld runs body on every PE of a fresh 2-PE world.
func probeWorld(cfg shmem.Config, body func(c *shmem.Ctx) error) error {
	cfg.NumPEs, cfg.HeapBytes = 2, heapBytes
	w, err := shmem.NewWorld(cfg)
	if err != nil {
		return err
	}
	return w.Run(body)
}

// runProbes runs every probe and returns the metrics by name.
func runProbes() (map[string]float64, error) {
	m := make(map[string]float64)
	fabric := shmem.Config{Latency: bench.DefaultLatency()}
	shm := shmem.Config{Transport: shmem.TransportShm}
	steps := []func() error{
		func() error { return probeShmemOps(shmem.Config{}, "local", 20000, m) },
		func() error { return probeShmemOps(shm, "shm", 20000, m) },
		func() error { return probeShmemOps(shmem.Config{Transport: shmem.TransportTCP}, "tcp", 1000, m) },
		func() error { return probeShmWaits(m) },
		func() error { return probeCoreOwner(m) },
		func() error { return probeSteal(shmem.Config{}, "core.steal_us.local", false, m) },
		func() error { return probeSteal(shm, "core.steal_us.shm", false, m) },
		func() error { return probeSteal(fabric, "core.steal_us.fabric", true, m) },
		func() error { return probeLdeque(m) },
		func() error { return probeJobEpoch(shmem.Config{}, "pool.job_epoch_us.local", m) },
		func() error { return probeJobEpoch(shm, "pool.job_epoch_us.shm", m) },
		func() error { return probeMailbox(m) },
		func() error { return probeTerm(shmem.Config{}, "term.check_us.local", m) },
		func() error { return probeTerm(shm, "term.check_us.shm", m) },
		func() error { return probeSubmit(m) },
		func() error { return probeSerialUTS(m) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeShmemOps times rank 0's blocking fetch-add, 1 KiB two-span GetV and
// NBI store + quiet against rank 1, which waits at a barrier.
func probeShmemOps(cfg shmem.Config, suffix string, n int, m map[string]float64) error {
	return probeWorld(cfg, func(c *shmem.Ctx) error {
		word, err := c.Alloc(shmem.WordSize)
		if err != nil {
			return err
		}
		buf, err := c.Alloc(1024)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			d, err := bestOf(n, repeat(n, func(int) error { _, err := c.FetchAdd64(1, word, 1); return err }))
			if err != nil {
				return err
			}
			m["shmem.fetch_add_ns."+suffix] = d
			spans := []shmem.Span{{Addr: buf, N: 512}, {Addr: buf + 512, N: 512}}
			dst := make([]byte, 1024)
			if d, err = bestOf(n, repeat(n, func(int) error { return c.GetV(1, spans, dst) })); err != nil {
				return err
			}
			m["shmem.getv_1k_ns."+suffix] = d
			d, err = bestOf(n, repeat(n, func(i int) error {
				if err := c.Store64NBI(1, word, uint64(i)); err != nil {
					return err
				}
				return c.Quiet()
			}))
			if err != nil {
				return err
			}
			m["shmem.store_nbi_quiet_ns."+suffix] = d
		}
		return c.Barrier()
	})
}

// probeShmWaits times the shm transport's two blocking waits: a barrier
// both ranks enter together, and the wake of a parked WaitUntil64 — from
// just before the remote store to the waiter's return, after the waker
// slept long enough for the waiter to exhaust its spin budget and park.
func probeShmWaits(m map[string]float64) error {
	const barriers, wakes = 2000, 100
	const timeout = 10 * time.Second
	base := time.Now()
	var wokeAt atomic.Int64
	return probeWorld(shmem.Config{Transport: shmem.TransportShm}, func(c *shmem.Ctx) error {
		flag, err := c.Alloc(shmem.WordSize)
		if err != nil {
			return err
		}
		ack, err := c.Alloc(shmem.WordSize)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		d, err := bestOf(barriers, repeat(barriers, func(int) error { return c.Barrier() }))
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := uint64(1); i <= probeBatches*wakes; i++ {
				if _, err := c.WaitUntil64(flag, shmem.CmpEQ, i, timeout); err != nil {
					return err
				}
				wokeAt.Store(int64(time.Since(base)))
				if err := c.Store64(0, ack, i); err != nil {
					return err
				}
			}
			return nil
		}
		m["shmem.barrier_us.shm"] = d / 1e3
		var best float64
		for b, i := 0, uint64(1); b < probeBatches; b++ {
			var sum time.Duration
			for k := 0; k < wakes; k, i = k+1, i+1 {
				time.Sleep(200 * time.Microsecond)
				sent := time.Since(base)
				if err := c.Store64(1, flag, i); err != nil {
					return err
				}
				if _, err := c.WaitUntil64(ack, shmem.CmpEQ, i, timeout); err != nil {
					return err
				}
				sum += time.Duration(wokeAt.Load()) - sent
			}
			best = lowest(b, best, sum, wakes)
		}
		m["shmem.wait_wake_us.shm"] = best / 1e3
		return nil
	})
}

// probeCoreOwner times the owner-side queue operations no thief takes part
// in: Push+Pop, and a Release+Acquire cycle on a two-task queue. Acquire
// applies only to an empty local portion, so the cycle is Release, Pop,
// Acquire, Push: one of each split move plus one Push+Pop.
func probeCoreOwner(m map[string]float64) error {
	const pushPops, cycles = 200000, 20000
	return probeWorld(shmem.Config{}, func(c *shmem.Ctx) error {
		q, err := core.NewQueue(c, core.DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return c.Barrier()
		}
		d := task.Desc{Payload: task.Args(1)}
		t, err := bestOf(pushPops, repeat(pushPops, func(int) error {
			if err := q.Push(d); err != nil {
				return err
			}
			_, _, err := q.Pop()
			return err
		}))
		if err != nil {
			return err
		}
		m["core.push_pop_ns"] = t
		if err := q.Push(d); err != nil {
			return err
		}
		if err := q.Push(d); err != nil {
			return err
		}
		t, err = bestOf(cycles, repeat(cycles, func(int) error {
			if k, err := q.Release(); err != nil || k != 1 {
				return fmt.Errorf("core probe: release moved %d tasks: %v", k, err)
			}
			if _, ok, err := q.Pop(); err != nil || !ok {
				return fmt.Errorf("core probe: pop after release: ok=%v: %v", ok, err)
			}
			if k, err := q.Acquire(); err != nil || k != 1 {
				return fmt.Errorf("core probe: acquire moved %d tasks: %v", k, err)
			}
			return q.Push(d)
		}))
		if err != nil {
			return err
		}
		m["core.release_acquire_ns"] = t
		return c.Barrier()
	})
}

// probeSteal times rank 1's Queue.Steal of half of 64 tasks rank 0 shared,
// and (withCounts) the remote operations that one successful steal issued,
// which are exact: the paper's two blocking communications and one
// non-blocking.
func probeSteal(cfg shmem.Config, key string, withCounts bool, m map[string]float64) error {
	const shared, reps = 64, 200
	return probeWorld(cfg, func(c *shmem.Ctx) error {
		q, err := core.NewQueue(c, core.DefaultOptions())
		if err != nil {
			return err
		}
		d := task.Desc{Payload: task.Args(1)}
		var comms shmem.CounterSnapshot
		victim := func() error {
			for i := 0; i < 2*shared; i++ {
				if err := q.Push(d); err != nil {
					return err
				}
			}
			if k, err := q.Release(); err != nil || k != shared {
				return fmt.Errorf("steal probe: release shared %d tasks: %v", k, err)
			}
			// The thief steals between these two barriers.
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for {
				if _, ok, err := q.Pop(); err != nil {
					return err
				} else if !ok {
					if k, err := q.Acquire(); err != nil {
						return err
					} else if k == 0 {
						break
					}
				}
			}
			if err := q.Progress(); err != nil {
				return err
			}
			return c.Barrier()
		}
		var stealing time.Duration
		thief := func() error {
			if err := c.Barrier(); err != nil {
				return err
			}
			before := c.Counters().Snapshot()
			start := time.Now()
			tasks, out, err := q.Steal(0)
			stealing += time.Since(start)
			comms = c.Counters().Snapshot().Sub(before)
			if err != nil || out != wsq.Stolen || len(tasks) != shared/2 {
				return fmt.Errorf("steal probe: outcome %v with %d tasks: %v", out, len(tasks), err)
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		var best float64
		for b := 0; b < probeBatches; b++ {
			stealing = 0
			for r := 0; r < reps; r++ {
				step := victim
				if c.Rank() == 1 {
					step = thief
				}
				if err := step(); err != nil {
					return err
				}
			}
			best = lowest(b, best, stealing, reps)
		}
		if c.Rank() == 1 {
			m[key] = best / 1e3
			if withCounts {
				m["core.steal_blocking_comms"] = float64(comms.Blocking())
				m["core.steal_nbi_comms"] = float64(comms.NonBlocking())
			}
		}
		return nil
	})
}

// probeLdeque times the intra-PE ring: TryPush+TryPop from one goroutine,
// and the operation rate two goroutines reach hammering it together.
func probeLdeque(m map[string]float64) error {
	const pairs = 500000
	q, err := ldeque.New(16)
	if err != nil {
		return err
	}
	d := task.Desc{Payload: task.Args(1)}
	pushPop := func(int) error {
		q.TryPush(d)
		q.TryPop()
		return nil
	}
	t, err := bestOf(pairs, repeat(pairs, pushPop))
	if err != nil {
		return err
	}
	m["ldeque.push_pop_ns"] = t
	t, err = bestOf(2*pairs, func() error {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = repeat(pairs, pushPop)()
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	m["ldeque.contended_ops_per_s"] = 2 * 1e9 / t // a pair is two operations
	return nil
}

// probeJobEpoch times Fleet.Run of a one-no-op-task job: the fixed cost of
// a job epoch (dispatch, barrier, seed, termination wave, barrier).
func probeJobEpoch(cfg shmem.Config, key string, m map[string]float64) error {
	const jobs = 200
	cfg.NumPEs, cfg.HeapBytes = 2, heapBytes
	var noop atomic.Uint32
	f, err := newFleet(cfg, pool.Config{}, nil, &noop)
	if err != nil {
		return err
	}
	job := noopJob(&noop)
	t, err := bestOf(jobs, repeat(jobs, func(int) error { _, err := f.Run(job); return err }))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	m[key] = t / 1e3
	return err
}

// probeMailbox times the remote-spawn inbox over shm: the sender-side
// SpawnOn call (fewer calls than inbox slots, issued while the receiver
// is not yet draining, so none waits for a slot), and the hop-to-hop
// latency of a single chain bouncing between the two PEs.
func probeMailbox(m map[string]float64) error {
	const sends, hops = 200, 2000
	ring := &hopRing{chains: 1, hops: hops}
	var noop atomic.Uint32
	cfg := shmem.Config{NumPEs: 2, HeapBytes: heapBytes, Transport: shmem.TransportShm}
	f, err := newFleet(cfg, pool.Config{}, ring, &noop)
	if err != nil {
		return err
	}
	var sendTime time.Duration
	sendJob := pool.Job{Seed: func(p *pool.Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		start := time.Now()
		err := repeat(sends, func(int) error { return p.SpawnOn(1, task.Handle(noop.Load()), nil) })()
		sendTime = time.Since(start)
		return err
	}}
	var bestSend, bestHop float64
	for b := 0; b < probeBatches && err == nil; b++ {
		if _, err = f.Run(sendJob); err != nil {
			break
		}
		bestSend = lowest(b, bestSend, sendTime, sends)
		start := time.Now()
		_, err = f.Run(pool.Job{Seed: ring.Seed})
		bestHop = lowest(b, bestHop, time.Since(start), hops)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	m["pool.spawn_on_ns.shm"] = bestSend
	m["pool.spawn_hop_us.shm"] = bestHop / 1e3
	return err
}

// probeTerm times one full termination wave on a quiescent world, as the
// leader pays it at the end of every job: rearm, a first clean summation
// pass, the confirming pass and the broadcast.
func probeTerm(cfg shmem.Config, key string, m map[string]float64) error {
	const waves = 2000
	return probeWorld(cfg, func(c *shmem.Ctx) error {
		det, err := term.New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			t, err := bestOf(waves, repeat(waves, func(int) error {
				if err := det.StartJob(); err != nil {
					return err
				}
				if _, err := det.Check(); err != nil {
					return err
				}
				if done, err := det.Check(); err != nil || !done {
					return fmt.Errorf("term probe: second pass on a quiescent world: done=%v: %v", done, err)
				}
				return nil
			}))
			if err != nil {
				return err
			}
			m[key] = t / 1e3
		}
		return c.Barrier()
	})
}

// probeSubmit times the in-process Service.Submit call (validation, work
// build, admission, enqueue), waiting for each job outside the timing.
func probeSubmit(m map[string]float64) error {
	const jobs = 200
	svc, err := serve.New(serve.Options{World: shmem.Config{NumPEs: servePEs, HeapBytes: heapBytes, Transport: shmem.TransportShm}})
	if err != nil {
		return err
	}
	spec := graphSpec("probe", 1, 1)
	var best float64
	for b := 0; b < probeBatches && err == nil; b++ {
		var sum time.Duration
		err = repeat(jobs, func(int) error {
			start := time.Now()
			st, err := svc.Submit(spec)
			sum += time.Since(start)
			if err != nil {
				return err
			}
			if st, _ = svc.Wait(st.ID, 10*time.Second); st.State != serve.StateDone {
				return fmt.Errorf("submit probe: job %s ended %q", st.ID, st.State)
			}
			return nil
		})()
		best = lowest(b, best, sum, jobs)
	}
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	m["serve.submit_us"] = best / 1e3
	return err
}

// probeSerialUTS times the plain single-goroutine T1 traversal, the
// scheduler-free baseline of the two uts workloads, and holds the
// benchmark's node-count constant against the generator.
func probeSerialUTS(m map[string]float64) error {
	var best time.Duration
	for b := 0; b < 3; b++ {
		start := time.Now()
		res, err := uts.CountSerial(uts.T1, 0)
		if err != nil {
			return err
		}
		if res.Nodes != utsT1Nodes {
			return fmt.Errorf("uts.T1 has %d nodes, the benchmark expects %d", res.Nodes, utsT1Nodes)
		}
		if d := time.Since(start); b == 0 || d < best {
			best = d
		}
	}
	m["uts.serial_nodes_per_s"] = utsT1Nodes / best.Seconds()
	return nil
}
