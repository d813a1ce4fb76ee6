package sim

import (
	"testing"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/trace"
)

// runTimedBPC runs one BPC workload on a pes-PE sim world under protocol
// proto and returns its stats; traced attaches a trace set, so the pool
// times every body instead of one in 64.
func runTimedBPC(t *testing.T, pes int, seed int64, proto pool.Protocol, params bpc.Params, traced bool) stats.Run {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs:    pes,
		HeapBytes: 1 << 20,
		Transport: shmem.TransportSim,
		Sim:       shmem.SimOptions{Seed: seed, MaxVirtualTime: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pool.Config{Protocol: proto, Seed: seed}
	if traced {
		if cfg.Trace, err = trace.NewSet(pes, 1<<12); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := bpc.NewWorkload(params)
	if err != nil {
		t.Fatal(err)
	}
	run, err := pool.RunOnce(w, cfg, func(_ int, reg *pool.Registry) error { return wl.Register(reg) }, wl.Seed, nil)
	if err != nil {
		t.Fatalf("%v %d PEs seed %d: %v", proto, pes, seed, err)
	}
	if got, want := wl.Producers()+wl.Consumers(), params.TotalTasks(); got != want {
		t.Fatalf("%v %d PEs seed %d: executed %d tasks, want %d", proto, pes, seed, got, want)
	}
	return run
}

// TestExecTimeIsVirtual: under the sim, Compute is a virtual charge and the
// exec clock reads Ctx.Now, so with every body timed the summed exec time
// is exactly the work the bodies were asked to simulate, on either queue.
func TestExecTimeIsVirtual(t *testing.T) {
	params := bpc.Params{Depth: 8, NConsumers: 16, ProducerWork: 40 * time.Microsecond, ConsumerWork: 200 * time.Microsecond}
	want := time.Duration(params.Depth)*params.ProducerWork +
		time.Duration(params.Depth*params.NConsumers)*params.ConsumerWork
	for _, proto := range []pool.Protocol{pool.SWS, pool.SDC} {
		if got := runTimedBPC(t, 4, 1, proto, params, true).Total().ExecTime; got != want {
			t.Errorf("%v: exec time %v, want exactly %v", proto, got, want)
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
			sws := runTimedBPC(t, pes, seed, pool.SWS, params, false)
			sdc := runTimedBPC(t, pes, seed, pool.SDC, params, false)
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
