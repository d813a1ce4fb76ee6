package bench

import (
	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/uts"
)

// DefaultPECounts is the default sweep x-axis. The paper sweeps 48–2,112
// hardware cores; a single-machine emulation sweeps goroutine PEs.
func DefaultPECounts() []int { return []int{2, 4, 8, 16, 32} }

// Fig7 builds the BPC sweep (Figure 7's six panels).
func Fig7(params bpc.Params, peCounts []int, reps int) SweepConfig {
	return SweepConfig{
		Name:     "BPC",
		PECounts: peCounts,
		Reps:     reps,
		Base: RunConfig{
			World: shmem.Config{Latency: DefaultLatency()},
			Pool:  pool.Config{PayloadCap: 24},
		},
		Factory: func() (Workload, error) { return bpc.NewWorkload(params) },
	}
}

// Fig8 builds the UTS sweep (Figure 8's six panels). UTS tasks are real
// computation (SHA-1), so on oversubscribed hosts the sweep uses the
// occupying latency mode: communication waits consume simulated core
// time, surfacing protocol communication counts in runtime exactly as a
// dedicated-core cluster would experience them (DESIGN.md §4.7).
func Fig8(params uts.Params, peCounts []int, reps int) SweepConfig {
	lat := DefaultLatency()
	lat.Occupy = true
	return SweepConfig{
		Name:     "UTS",
		PECounts: peCounts,
		Reps:     reps,
		Base: RunConfig{
			World: shmem.Config{Latency: lat},
			Pool:  pool.Config{PayloadCap: uts.PayloadSize},
		},
		Factory: func() (Workload, error) { return uts.NewWorkload(params) },
	}
}
