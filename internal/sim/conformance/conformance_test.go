package conformance

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"sws/internal/shmem"
)

// killSeed replays a single kill-oracle seed (the repro line printed on
// failure sets it).
var killSeed = flag.Int64("kill.seed", -1, "replay one ExactlyOnceUnderKill seed")

// churnSeed replays a single churn-oracle seed.
var churnSeed = flag.Int64("churn.seed", -1, "replay one ExactlyOnceUnderChurn seed")

// inProcKilled builds an in-process world (local or tcp) whose victim is
// crash-injected by a wall-clock timer at a seed-derived delay, with the
// failure detector tightened so the test stays fast.
func inProcKilled(kind shmem.TransportKind) func(numPEs, victim int, seed int64) (*shmem.World, error) {
	return func(numPEs, victim int, seed int64) (*shmem.World, error) {
		w, err := shmem.NewWorld(shmem.Config{
			NumPEs:    numPEs,
			HeapBytes: 1 << 20,
			Transport: kind,
			DeadAfter: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		delay := 100*time.Microsecond + time.Duration(uint64(seed)%16)*150*time.Microsecond
		time.AfterFunc(delay, func() { w.Kill(victim) })
		return w, nil
	}
}

// factories builds every transport the suite must hold on: the
// in-process local transport, the loopback TCP transport, the
// deterministic simulation transport, and (where the platform supports
// mmap'd segments) the zero-syscall shm transport.
func factories() []Factory {
	fs := []Factory{
		{
			Name: "local",
			New: func(numPEs int, fault shmem.FaultInjector) (*shmem.World, error) {
				return shmem.NewWorld(shmem.Config{
					NumPEs:    numPEs,
					HeapBytes: 1 << 20,
					Transport: shmem.TransportLocal,
					Fault:     fault,
				})
			},
			NewKilled: inProcKilled(shmem.TransportLocal),
		},
		{
			Name: "tcp",
			New: func(numPEs int, fault shmem.FaultInjector) (*shmem.World, error) {
				return shmem.NewWorld(shmem.Config{
					NumPEs:    numPEs,
					HeapBytes: 1 << 20,
					Transport: shmem.TransportTCP,
					Fault:     fault,
				})
			},
			NewKilled: inProcKilled(shmem.TransportTCP),
		},
		{
			Name:     "sim",
			Lockstep: true,
			New: func(numPEs int, fault shmem.FaultInjector) (*shmem.World, error) {
				return shmem.NewWorld(shmem.Config{
					NumPEs:    numPEs,
					HeapBytes: 1 << 20,
					Transport: shmem.TransportSim,
					Fault:     fault,
					Sim: shmem.SimOptions{
						Seed:           1,
						MaxVirtualTime: 30 * time.Second,
					},
				})
			},
			NewKilled: func(numPEs, victim int, seed int64) (*shmem.World, error) {
				// Virtual-time kill: part of the deterministic schedule, so
				// a failing seed replays exactly.
				at := 50*time.Microsecond + time.Duration(uint64(seed)%16)*50*time.Microsecond
				return shmem.NewWorld(shmem.Config{
					NumPEs:    numPEs,
					HeapBytes: 1 << 20,
					Transport: shmem.TransportSim,
					DeadAfter: 500 * time.Microsecond,
					Sim: shmem.SimOptions{
						Seed:           seed,
						MaxVirtualTime: 30 * time.Second,
						Kill:           []shmem.SimKill{{Rank: victim, At: at}},
					},
				})
			},
		},
	}
	if shmem.ShmSupported() {
		fs = append(fs, Factory{
			Name: "shm",
			New: func(numPEs int, fault shmem.FaultInjector) (*shmem.World, error) {
				return shmem.NewWorld(shmem.Config{
					NumPEs:    numPEs,
					HeapBytes: 1 << 20,
					Transport: shmem.TransportShm,
					Fault:     fault,
				})
			},
			NewKilled: inProcKilled(shmem.TransportShm),
		})
	}
	return fs
}

// TestConformance runs every protocol oracle against every transport.
func TestConformance(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) { RunAll(t, f) })
	}
}

// TestKillConformance runs the crash-injection oracle at several randomized
// kill points on every transport. A failing seed prints a one-line repro
// (-kill.seed replays just that seed).
func TestKillConformance(t *testing.T) {
	seeds := []int64{3, 17, 29, 40}
	if *killSeed >= 0 {
		seeds = []int64{*killSeed}
	}
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, s := range seeds {
				s := s
				t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) { ExactlyOnceUnderKill(t, f, s) })
			}
		})
	}
}

// TestChurnConformance runs the elastic-membership oracle at several
// randomized join/drain points on every transport. A failing seed prints
// a one-line repro (-churn.seed replays just that seed).
func TestChurnConformance(t *testing.T) {
	seeds := []int64{5, 19, 31, 47}
	if *churnSeed >= 0 {
		seeds = []int64{*churnSeed}
	}
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, s := range seeds {
				s := s
				t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) { ExactlyOnceUnderChurn(t, f, s) })
			}
		})
	}
}
