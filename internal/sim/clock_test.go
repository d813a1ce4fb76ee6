package sim

import (
	"testing"
	"time"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/trace"
)

// virtualBPC runs one BPC workload through the figure code's run path
// (bench.RunOnce) on a pes-PE sim world under protocol proto and returns
// its stats; a non-nil tr becomes the pool's trace set, which also times
// every body on its own (TaskExec events).
func virtualBPC(t *testing.T, pes int, seed int64, proto pool.Protocol, params bpc.Params, tr *trace.Set) stats.Run {
	t.Helper()
	run, err := bench.RunOnce(bench.RunConfig{
		World: shmem.Config{
			NumPEs:    pes,
			HeapBytes: 1 << 20,
			Transport: shmem.TransportSim,
			Sim:       shmem.SimOptions{Seed: seed, MaxVirtualTime: time.Hour},
		},
		Pool: pool.Config{Protocol: proto, Seed: seed, Trace: tr},
	}, func() (bench.Workload, error) { return bpc.NewWorkload(params) })
	if err != nil {
		t.Fatalf("%v %d PEs seed %d: %v", proto, pes, seed, err)
	}
	if got, want := run.Total().TasksExecuted, params.TotalTasks(); got != want {
		t.Fatalf("%v %d PEs seed %d: executed %d tasks, want %d", proto, pes, seed, got, want)
	}
	return run
}

// TestExecTimeIsVirtual: under the sim, Compute is a virtual charge and the
// exec clock reads Ctx.Now. ExecTime is run time, each burst of
// back-to-back tasks booked whole, so it has one definition: a traced run
// books what an untraced run of the same seed books, on either queue. The
// trace's own TaskExec durations sum to exactly the work the bodies were
// asked to simulate, and run time holds all of it and fits in the run.
func TestExecTimeIsVirtual(t *testing.T) {
	const pes = 4
	params := bpc.Params{Depth: 8, NConsumers: 16, ProducerWork: 40 * time.Microsecond, ConsumerWork: 200 * time.Microsecond}
	want := time.Duration(params.Depth)*params.ProducerWork +
		time.Duration(params.Depth*params.NConsumers)*params.ConsumerWork
	for _, proto := range []pool.Protocol{pool.SWS, pool.SDC} {
		tr, err := trace.NewSet(pes, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		traced := virtualBPC(t, pes, 1, proto, params, tr)
		untraced := virtualBPC(t, pes, 1, proto, params, nil)
		got := traced.Total().ExecTime
		if u := untraced.Total().ExecTime; u != got {
			t.Errorf("%v: untraced exec time %v, traced %v: want one definition", proto, u, got)
		}
		var bodies time.Duration
		for _, e := range tr.Merged() {
			if e.Kind == trace.TaskExec {
				bodies += time.Duration(e.B)
			}
		}
		for pe := range pes {
			if n := tr.PE(pe).Dropped(); n != 0 {
				t.Fatalf("%v: PE %d's trace ring dropped %d events", proto, pe, n)
			}
		}
		if bodies != want {
			t.Errorf("%v: TaskExec durations sum to %v, want exactly %v", proto, bodies, want)
		}
		if limit := pes * traced.Elapsed; got < want || got > limit {
			t.Errorf("%v: exec time %v, want within [%v, %d PEs × Elapsed %v]", proto, got, want, pes, traced.Elapsed)
		}
	}
}

// TestVirtualFig7Shape is Figure 7's claim in virtual time, where every PE
// has a core of its own: SDC's runtime over SWS's rises with the PE count
// and passes 100 % by 16 PEs, and SWS spends under half of SDC's time in
// successful steals.
func TestVirtualFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual Fig 7 skipped in -short mode")
	}
	params := bpc.Params{Depth: 32, NConsumers: 64, ProducerWork: 40 * time.Microsecond, ConsumerWork: 200 * time.Microsecond}
	for seed := int64(1); seed <= 3; seed++ {
		prev := 0.0
		for _, pes := range []int{4, 16, 64} {
			sws := virtualBPC(t, pes, seed, pool.SWS, params, nil)
			sdc := virtualBPC(t, pes, seed, pool.SDC, params, nil)
			ratio := float64(sdc.Elapsed) / float64(sws.Elapsed)
			swsSteal, sdcSteal := sws.Total().StealTime, sdc.Total().StealTime
			t.Logf("seed %d, %2d PEs: SDC/SWS %.1f%% (%v / %v), steal time SWS %v, SDC %v",
				seed, pes, 100*ratio, sdc.Elapsed, sws.Elapsed, swsSteal, sdcSteal)
			if ratio <= prev {
				t.Errorf("seed %d, %d PEs: SDC/SWS %.3f, not above %.3f at fewer PEs", seed, pes, ratio, prev)
			}
			prev = ratio
			if pes < 16 {
				continue
			}
			if ratio <= 1 {
				t.Errorf("seed %d, %d PEs: SDC/SWS %.3f, want above 1", seed, pes, ratio)
			}
			if 2*swsSteal >= sdcSteal {
				t.Errorf("seed %d, %d PEs: SWS steal time %v, want under half of SDC's %v", seed, pes, swsSteal, sdcSteal)
			}
		}
	}
}
