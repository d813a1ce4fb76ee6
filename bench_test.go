// Benchmarks regenerating the paper's tables and figures (one Benchmark
// per experiment; see DESIGN.md §5 for the index), plus ablation benches
// for the design choices DESIGN.md calls out. The full-size sweeps are
// driven by cmd/sws-tables; these benches run laptop-quick versions and
// surface the headline comparison as custom metrics.
package sws_test

import (
	"fmt"
	"testing"
	"time"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/uts"
	"sws/internal/wsq"
)

// BenchmarkFig2CommCounts audits the per-steal communication counts
// (Figure 2). Metrics: ops and blocking ops per steal for each protocol.
func BenchmarkFig2CommCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range t.Rows {
				if row[1] != "successful steal" {
					continue
				}
				var comms, blocking float64
				fmt.Sscanf(row[2], "%f", &comms)
				fmt.Sscanf(row[3], "%f", &blocking)
				b.ReportMetric(comms, row[0]+"-comms/steal")
				b.ReportMetric(blocking, row[0]+"-blocking/steal")
			}
		}
	}
}

// BenchmarkFig6StealLatency measures single-steal latency per protocol,
// task size, and volume (Figure 6), as sub-benchmarks.
func BenchmarkFig6StealLatency(b *testing.B) {
	lat := bench.DefaultLatency()
	for _, slot := range []int{24, 192} {
		for _, vol := range []int{1, 16, 256} {
			for _, proto := range []string{"sdc", "sws"} {
				proto := proto
				name := fmt.Sprintf("%s/slot=%dB/vol=%d", proto, slot, vol)
				b.Run(name, func(b *testing.B) {
					d, err := benchOneStealConfig(b.N, proto, slot-8, vol, lat)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/steal")
				})
			}
		}
	}
}

// benchOneStealConfig times n steals of the given volume.
func benchOneStealConfig(n int, proto string, payloadCap, vol int, lat shmem.LatencyModel) (time.Duration, error) {
	capacity := 8 * vol
	if capacity < 64 {
		capacity = 64
	}
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: 2, HeapBytes: capacity*(payloadCap+64) + (1 << 16), Latency: lat,
	})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	payload := make([]byte, payloadCap)
	err = w.Run(func(c *shmem.Ctx) error {
		var q wsq.Queue
		var qerr error
		switch proto {
		case "sdc":
			q, qerr = bench.NewSDCQueue(c, capacity, payloadCap)
		case "sws-fused":
			q, qerr = bench.NewFusedQueue(c, capacity, payloadCap)
		default:
			q, qerr = bench.NewSWSQueue(c, capacity, payloadCap)
		}
		if qerr != nil {
			return qerr
		}
		for rep := 0; rep < n; rep++ {
			if c.Rank() == 0 {
				for i := 0; i < 4*vol; i++ {
					if err := q.Push(task.Desc{Payload: payload}); err != nil {
						return err
					}
				}
				if _, err := q.Release(); err != nil {
					return err
				}
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
				if err := c.Barrier(); err != nil {
					return err
				}
				continue
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			tasks, out, err := q.Steal(0)
			total += time.Since(start)
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != vol {
				return fmt.Errorf("steal: out=%v n=%d want %d", out, len(tasks), vol)
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	return total, err
}

// BenchmarkTable2Workloads characterizes the benchmark workloads
// (Table 2): total tasks, mean task time.
func BenchmarkTable2Workloads(b *testing.B) {
	cfg := bench.Table2Config{
		BPC: bpc.Params{Depth: 8, NConsumers: 64, ConsumerWork: 50 * time.Microsecond, ProducerWork: 10 * time.Microsecond},
		UTS: uts.Tiny,
		PEs: 4,
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// runWorkloadBench executes one full pool run per iteration and reports
// the runtime as ns/op, for a given protocol and workload.
func runWorkloadBench(b *testing.B, proto pool.Protocol, pcfg pool.Config, f bench.Factory) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		run, err := bench.RunOnce(bench.RunConfig{
			PEs:      4,
			Protocol: proto,
			Latency:  bench.DefaultLatency(),
			Seed:     int64(i + 1),
			Pool:     pcfg,
		}, f)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(run.Throughput(), "tasks/s")
		}
	}
}

// BenchmarkFig7BPC runs the BPC workload under both protocols (Figure 7's
// headline comparison at one PE count; the sweep lives in sws-bpc -sweep).
func BenchmarkFig7BPC(b *testing.B) {
	params := bpc.Params{Depth: 16, NConsumers: 128, ConsumerWork: 50 * time.Microsecond, ProducerWork: 10 * time.Microsecond}
	for _, proto := range []pool.Protocol{pool.SDC, pool.SWS} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			runWorkloadBench(b, proto, pool.Config{PayloadCap: 24},
				func() (bench.Workload, error) { return bpc.NewWorkload(params) })
		})
	}
}

// BenchmarkFig8UTS runs the UTS workload under both protocols (Figure 8's
// headline comparison at one PE count; the sweep lives in sws-uts -sweep).
func BenchmarkFig8UTS(b *testing.B) {
	for _, proto := range []pool.Protocol{pool.SDC, pool.SWS} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			runWorkloadBench(b, proto, pool.Config{PayloadCap: uts.PayloadSize},
				func() (bench.Workload, error) { return uts.NewWorkload(uts.Tiny) })
		})
	}
}

// BenchmarkAblationEpochs isolates completion epochs (§4.2): the same SWS
// workload with epochs (format V2) vs without (format V1, owner waits for
// in-flight steals at every queue reset).
func BenchmarkAblationEpochs(b *testing.B) {
	params := bpc.Params{Depth: 16, NConsumers: 64, ConsumerWork: 20 * time.Microsecond, ProducerWork: 4 * time.Microsecond}
	for _, noEpochs := range []bool{false, true} {
		noEpochs := noEpochs
		name := "epochs"
		if noEpochs {
			name = "no-epochs"
		}
		b.Run(name, func(b *testing.B) {
			runWorkloadBench(b, pool.SWS, pool.Config{PayloadCap: 24, NoEpochs: noEpochs},
				func() (bench.Workload, error) { return bpc.NewWorkload(params) })
		})
	}
}

// BenchmarkAblationDamping isolates steal damping (§4.3) on a
// scarce-work workload (one short producer chain, many idle thieves
// hammering empty queues).
func BenchmarkAblationDamping(b *testing.B) {
	params := bpc.Params{Depth: 4, NConsumers: 16, ConsumerWork: 100 * time.Microsecond, ProducerWork: 10 * time.Microsecond}
	for _, noDamping := range []bool{false, true} {
		noDamping := noDamping
		name := "damping"
		if noDamping {
			name = "no-damping"
		}
		b.Run(name, func(b *testing.B) {
			runWorkloadBench(b, pool.SWS, pool.Config{PayloadCap: 24, NoDamping: noDamping},
				func() (bench.Workload, error) { return bpc.NewWorkload(params) })
		})
	}
}

// BenchmarkAblationRTT sweeps the injected round-trip latency to locate
// where the SWS advantage grows (steals are latency-bound) vs shrinks
// (bandwidth-bound): the sensitivity axis of DESIGN.md §6.
func BenchmarkAblationRTT(b *testing.B) {
	for _, rtt := range []time.Duration{500 * time.Nanosecond, 2 * time.Microsecond, 8 * time.Microsecond} {
		for _, proto := range []string{"sdc", "sws"} {
			proto := proto
			rtt := rtt
			b.Run(fmt.Sprintf("%s/rtt=%v", proto, rtt), func(b *testing.B) {
				lat := bench.DefaultLatency()
				lat.BlockingRTT = rtt
				d, err := benchOneStealConfig(b.N, proto, 16, 16, lat)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/steal")
			})
		}
	}
}

// BenchmarkStealvalPack measures the packed-metadata codec itself — the
// owner-side cost the paper trades for fewer communications (§4: "adds
// minimal processing to queue metadata upkeep").
func BenchmarkStealvalPack(b *testing.B) {
	v := core.Stealval{Asteals: 2, Valid: true, Epoch: 1, ITasks: 150, Tail: 500}
	b.Run("pack-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FormatV2.Pack(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	w, _ := core.FormatV2.Pack(v)
	b.Run("unpack-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := core.FormatV2.Unpack(w)
			if got.ITasks != 150 {
				b.Fatal("bad unpack")
			}
		}
	})
	b.Run("steal-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if wsq.StealHalf(150, 2) != 19 {
				b.Fatal("bad plan")
			}
		}
	})
}

// BenchmarkLocalQueueOps measures the owner-side fast path (push/pop),
// which both protocols keep lock-free and local.
func BenchmarkLocalQueueOps(b *testing.B) {
	for _, proto := range []string{"sdc", "sws"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			berr := w.Run(func(c *shmem.Ctx) error {
				var q wsq.Queue
				var qerr error
				if proto == "sdc" {
					q, qerr = bench.NewSDCQueue(c, 8192, 24)
				} else {
					q, qerr = bench.NewSWSQueue(c, 8192, 24)
				}
				if qerr != nil {
					return qerr
				}
				d := task.Desc{Payload: task.Args(42)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := q.Push(d); err != nil {
						return err
					}
					if _, ok, err := q.Pop(); err != nil || !ok {
						return fmt.Errorf("pop failed: %v", err)
					}
				}
				return nil
			})
			if berr != nil {
				b.Fatal(berr)
			}
		})
	}
}

// BenchmarkFusedSteal compares the three communication structures on the
// same steal (SDC 5 blocking RTTs, SWS 2, SWS-Fused 1 — the last being
// the Portals-offload ablation the paper cites as its inspiration).
func BenchmarkFusedSteal(b *testing.B) {
	lat := bench.DefaultLatency()
	for _, proto := range []string{"sdc", "sws", "sws-fused"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			d, err := benchOneStealConfig(b.N, proto, 16, 16, lat)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/steal")
		})
	}
}

// BenchmarkStealWire measures the steal hot path — claim (fetch-add),
// block copy (get), completion notify (store-NBI) — per transport, with
// allocations visible under -benchmem. Zero latency model so the numbers
// isolate the wire path (marshalling, buffering, payload staging) that the
// batched/pooled transport work targets. b.N counts individual steals.
func BenchmarkStealWire(b *testing.B) {
	kinds := []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP}
	if shmem.ShmSupported() {
		kinds = append(kinds, shmem.TransportShm)
	}
	for _, kind := range kinds {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			benchStealWire(b, kind)
		})
	}
}

func benchStealWire(b *testing.B, kind shmem.TransportKind) {
	b.Helper()
	b.ReportAllocs()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 1 << 20, Transport: kind})
	if err != nil {
		b.Fatal(err)
	}
	var stealTime time.Duration
	err = w.Run(func(c *shmem.Ctx) error {
		q, err := core.NewQueue(c, core.Options{Capacity: 2048, PayloadCap: 16, Epochs: true})
		if err != nil {
			return err
		}
		// Each round the owner pushes 2 tasks and releases 1, so every
		// block is one task and every steal a single-task steal.
		for r := 0; r < b.N; r++ {
			if c.Rank() == 0 {
				for i := 0; i < 2; i++ {
					if err := q.Push(task.Desc{}); err != nil {
						return err
					}
				}
				if n, err := q.Release(); err != nil {
					return err
				} else if n != 1 {
					return fmt.Errorf("release shared %d, want 1", n)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if _, _, err := q.Pop(); err != nil {
					return err
				}
				continue
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			tasks, out, err := q.Steal(0)
			stealTime += time.Since(start)
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != 1 {
				return fmt.Errorf("round %d: out=%v n=%d", r, out, len(tasks))
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stealTime.Nanoseconds())/float64(b.N), "ns/steal")
}

// BenchmarkQueueGrow measures the elastic queue's flood/drain cycle: one
// op pushes a burst far past the starting ring (climbing the grow ladder
// into the spill arena), then pops everything back out (unspilling and
// shrinking). The presized sub-benchmark runs the same burst through a
// fixed ring large enough to hold it — the price of elasticity is the
// gap between the two. Metrics: ns/task plus the reseat and spill counts
// that prove the elastic leg actually exercised the machinery.
func BenchmarkQueueGrow(b *testing.B) {
	const burst = 1000
	for _, cfg := range []struct {
		name     string
		growable bool
		capacity int
	}{
		// 64 slots, 3 doublings -> 512 max ring, so ~half the burst spills.
		{"elastic-64", true, 64},
		{"presized-1024", false, 1024},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			d := task.Desc{Payload: task.Args(42)}
			berr := w.Run(func(c *shmem.Ctx) error {
				q, err := core.NewQueue(c, core.Options{
					Capacity: cfg.capacity, PayloadCap: 24, Epochs: true, Growable: cfg.growable,
				})
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < burst; j++ {
						if err := q.Push(d); err != nil {
							return err
						}
					}
					for j := 0; j < burst; j++ {
						if _, ok, err := q.Pop(); err != nil || !ok {
							return fmt.Errorf("pop %d failed: %v", j, err)
						}
					}
				}
				b.StopTimer()
				st := q.Stats()
				b.ReportMetric(float64(st.Grows)/float64(b.N), "grows/op")
				b.ReportMetric(float64(st.Spilled)/float64(b.N), "spilled/op")
				if cfg.growable && st.Grows == 0 {
					return fmt.Errorf("elastic leg never grew (stats %+v)", st)
				}
				return nil
			})
			if berr != nil {
				b.Fatal(berr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/task")
		})
	}
}

// growSteal runs n steals against an SWS queue whose elastic machinery is
// toggled by growable, with the ring sized so the growable leg never
// actually reseats. It returns the thief's one-sided communication counts
// over the steals and the owner's reseat count.
func growSteal(n int, growable bool) (shmem.CounterSnapshot, uint64, error) {
	const vol = 16
	const payloadCap = 16
	const capacity = 8 * vol // 4*vol in-flight tasks can never fill class 0
	w, err := shmem.NewWorld(shmem.Config{
		// Heap sized for the full pre-registered ladder so both legs
		// allocate against identical worlds.
		NumPEs: 2, HeapBytes: 16*capacity*(payloadCap+64) + (1 << 16),
	})
	if err != nil {
		return shmem.CounterSnapshot{}, 0, err
	}
	var comms shmem.CounterSnapshot
	var grows uint64
	payload := make([]byte, payloadCap)
	err = w.Run(func(c *shmem.Ctx) error {
		q, err := core.NewQueue(c, core.Options{
			Capacity: capacity, PayloadCap: payloadCap, Epochs: true, Growable: growable,
		})
		if err != nil {
			return err
		}
		for rep := 0; rep < n; rep++ {
			if c.Rank() == 0 {
				for i := 0; i < 4*vol; i++ {
					if err := q.Push(task.Desc{Payload: payload}); err != nil {
						return err
					}
				}
				if _, err := q.Release(); err != nil {
					return err
				}
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
				if err := c.Barrier(); err != nil {
					return err
				}
				continue
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			before := c.Counters().Snapshot()
			tasks, out, err := q.Steal(0)
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != vol {
				return fmt.Errorf("steal: out=%v n=%d want %d", out, len(tasks), vol)
			}
			if err := c.Quiet(); err != nil {
				return err
			}
			comms = comms.Add(c.Counters().Snapshot().Sub(before))
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			grows = q.Stats().Grows
		}
		return nil
	})
	return comms, grows, err
}

// TestGrowableStealComms gates the elastic queue's steal path at zero
// extra communication: a thief derives the victim's geometry from the
// class bits of the stealval word it already fetches, so its one-sided
// ops per steal — every kind, blocking or not — must be identical with
// the grow machinery dormant (Growable on, ring never fills) and absent
// (Growable off). A geometry fetch or an epoch-check round trip added to
// Steal makes the counts diverge.
func TestGrowableStealComms(t *testing.T) {
	const steals = 64
	var comms [2]shmem.CounterSnapshot
	for i, growable := range []bool{false, true} {
		c, grows, err := growSteal(steals, growable)
		if err != nil {
			t.Fatal(err)
		}
		if grows != 0 {
			t.Fatalf("growable=%v leg reseated %d times; it no longer measures the no-grow steal path", growable, grows)
		}
		comms[i] = c
	}
	off, on := comms[0], comms[1]
	if on.Ops != off.Ops {
		t.Errorf("grow machinery changed the steal wire: growable %d ops (%d blocking) per %d steals [%v], fixed %d (%d) [%v]",
			on.Total(), on.Blocking(), steals, on, off.Total(), off.Blocking(), off)
	}
}
