// Package sim is the deterministic simulation harness for the SWS
// work-stealing runtime, in the FoundationDB tradition: a whole multi-PE
// pool run — steals, epoch flips, termination waves — executes under the
// shmem simulation transport (shmem.TransportSim), where every delivery,
// delay, and schedule decision is drawn from a single PRNG. A run is
// bit-reproducible from its seed, so any failure a seed sweep finds can
// be replayed exactly with one command.
//
// The package provides three layers:
//
//   - Run executes one seeded BPC workload under the sim transport and
//     checks the exactly-once oracle, returning the deterministic event
//     log.
//   - Sweep and Systematic explore schedules: thousands of random seeds,
//     or a bounded enumeration of forced schedule-choice prefixes around
//     the steal/acquire/release interleavings.
//   - Minimize shrinks a failing configuration (PEs, depth, width) while
//     it keeps failing, and ReproLine prints the one-line repro command.
//
// The conformance suite built on the same substrate lives in
// internal/sim/conformance.
package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// Params configures one simulated run: a BPC workload (zero task
// durations, so all time is protocol time) on a sim-transport world.
type Params struct {
	// PEs is the number of simulated processing elements. Default 4.
	PEs int
	// Depth is the BPC producer-chain length. Default 6.
	Depth int
	// Width is the number of consumers per producer. Default 12.
	Width int
	// Seed drives the entire simulation (schedule, latencies, and any
	// seeded fault injector constructed from it).
	Seed int64
	// Chaos randomizes schedule choice among near-simultaneous candidates
	// (more interleavings per seed).
	Chaos bool
	// Choices forces a schedule-decision prefix (bounded systematic mode).
	Choices []byte
	// Protocol selects the queue protocol. Default pool.SWS.
	Protocol pool.Protocol
	// QueueCap is the task-queue capacity in slots (0 = library default).
	// Overflow sweeps set it small so spawns keep finding the queue full
	// and overflow into the owner's private deque.
	QueueCap int
	// Stats, if non-nil, receives the element-wise sum of per-PE pool
	// counters after the run — sweep tests use it to prove a configuration
	// actually exercises the machinery under test (e.g. overflow).
	Stats *stats.PE
	// Fault, if non-nil, is built once per run from the seed, letting
	// fault streams replay along with the schedule.
	Fault func(seed int64) shmem.FaultInjector
	// MaxVirtualTime bounds the run in virtual time (livelock detector).
	// Default 2s.
	MaxVirtualTime time.Duration
	// MaxSteps bounds the run in scheduler decisions. Default 2,000,000.
	MaxSteps uint64
	// Kill schedules virtual-time crash injections (passed through to
	// shmem.SimOptions.Kill). When non-empty the failure-detector windows
	// default to virtual-time scale and the exactly-once oracle relaxes to
	// at-most-once plus survivor termination: executed <= total, no hang,
	// and the victim's own unwind is the only tolerated error.
	Kill []shmem.SimKill
	// DeadAfter overrides the failure-detector window in virtual time.
	// Zero means 500µs when Kill is non-empty (the wall-clock library
	// default would blow the virtual-time budget) and the library default
	// otherwise.
	DeadAfter time.Duration
	// Churn schedules virtual-time membership transitions (passed through
	// to shmem.SimOptions.Churn): drains and joins begin at exact virtual
	// times and the affected PE completes them from its scheduler loop, so
	// churned runs replay byte-identically from the seed. Transitions are
	// voluntary and loss-free, so the exactly-once oracle stays strict.
	Churn []shmem.SimChurn
	// InitialMembers engages elastic membership with only ranks
	// [0, InitialMembers) starting live; the rest start parked (a Join
	// churn entry needs its rank parked first). Zero means all PEs start
	// live (membership still engages when Churn is non-empty).
	InitialMembers int
}

func (p Params) withDefaults() Params {
	if p.PEs == 0 {
		p.PEs = 4
	}
	if p.Depth == 0 {
		p.Depth = 6
	}
	if p.Width == 0 {
		p.Width = 12
	}
	if p.MaxVirtualTime == 0 {
		p.MaxVirtualTime = 2 * time.Second
	}
	if p.MaxSteps == 0 {
		p.MaxSteps = 2_000_000
	}
	if len(p.Kill) > 0 && p.DeadAfter == 0 {
		p.DeadAfter = 500 * time.Microsecond
	}
	return p
}

func (p Params) String() string {
	s := fmt.Sprintf("seed=%d pes=%d depth=%d width=%d chaos=%t", p.Seed, p.PEs, p.Depth, p.Width, p.Chaos)
	if p.QueueCap != 0 {
		s += fmt.Sprintf(" qcap=%d", p.QueueCap)
	}
	for _, k := range p.Kill {
		s += fmt.Sprintf(" kill=%d@%v", k.Rank, k.At)
	}
	if p.InitialMembers > 0 {
		s += fmt.Sprintf(" members=%d", p.InitialMembers)
	}
	for _, c := range p.Churn {
		kind := "drain"
		if c.Join {
			kind = "join"
		}
		s += fmt.Sprintf(" %s=%d@%v", kind, c.Rank, c.At)
	}
	return s
}

// Run executes one simulated BPC run and returns the deterministic event
// log. The error is non-nil if the world failed (deadlock, livelock
// budget, a PE body error) or the exactly-once oracle is violated:
// executed producers+consumers must equal Depth*(Width+1).
func Run(p Params) ([]byte, error) { return runSteps(p, nil) }

// runSteps is Run, also storing the world's scheduler decisions in *steps
// when steps is non-nil.
func runSteps(p Params, steps *uint64) ([]byte, error) {
	p = p.withDefaults()
	var log bytes.Buffer
	var fault shmem.FaultInjector
	if p.Fault != nil {
		fault = p.Fault(p.Seed)
	}
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs:    p.PEs,
		HeapBytes: 4 << 20,
		Transport: shmem.TransportSim,
		Fault:     fault,
		DeadAfter: p.DeadAfter,
		Sim: shmem.SimOptions{
			Seed:           p.Seed,
			Chaos:          p.Chaos,
			Choices:        p.Choices,
			MaxVirtualTime: p.MaxVirtualTime,
			MaxSteps:       p.MaxSteps,
			Log:            &log,
			Kill:           p.Kill,
			Churn:          p.Churn,
		},
	})
	if err != nil {
		return nil, err
	}
	if p.InitialMembers > 0 || len(p.Churn) > 0 {
		n := p.InitialMembers
		if n == 0 {
			n = p.PEs
		}
		if err := w.SetInitialMembers(n); err != nil {
			return nil, err
		}
	}
	// Zero task durations: TaskCtx.Compute returns immediately, so the whole
	// run is protocol communication — exactly what the sim explores.
	wl, err := bpc.NewWorkload(bpc.Params{Depth: p.Depth, NConsumers: p.Width})
	if err != nil {
		return nil, err
	}
	run, err := pool.RunOnce(w, pool.Config{
		Protocol:      p.Protocol,
		Seed:          p.Seed,
		QueueCapacity: p.QueueCap,
	}, func(_ int, reg *pool.Registry) error { return wl.Register(reg) }, wl.Seed, nil)
	if p.Stats != nil {
		*p.Stats = run.Total()
	}
	if steps != nil {
		*steps = w.SimSteps()
	}
	if err != nil {
		// With a kill scheduled, the victim's own unwind is the expected
		// outcome; anything beyond it (a world failure, a survivor error)
		// is a real failure.
		if len(p.Kill) == 0 || !errors.Is(err, shmem.ErrPEKilled) || w.Err() != nil {
			return log.Bytes(), err
		}
	}
	want := wl.Params.TotalTasks()
	got := wl.Producers() + wl.Consumers()
	if len(p.Kill) > 0 {
		if got > want {
			return log.Bytes(), fmt.Errorf("sim: at-most-once violated under kill: executed %d tasks, spawn budget %d", got, want)
		}
		return log.Bytes(), nil
	}
	if got != want {
		return log.Bytes(), fmt.Errorf("sim: exactly-once violated: executed %d tasks (%d producers, %d consumers), want %d",
			got, wl.Producers(), wl.Consumers(), want)
	}
	return log.Bytes(), nil
}

// Failure records one failing configuration found by the explorer.
type Failure struct {
	Params Params
	Err    error
}

func (f Failure) String() string {
	return fmt.Sprintf("%v: %v\nrepro: %s", f.Params, f.Err, ReproLine(f.Params))
}

// Sweep runs n seeds starting at startSeed (each otherwise configured as
// base) and returns the failures, sorted by seed. Runs execute in
// parallel across CPUs; each run is individually deterministic.
func Sweep(base Params, startSeed int64, n int) []Failure {
	type job struct {
		seed int64
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var failures []Failure
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := base
				p.Seed = j.seed
				p.Stats = nil // parallel runs must not share one stats sink
				if _, err := Run(p); err != nil {
					mu.Lock()
					failures = append(failures, Failure{Params: p.withDefaults(), Err: err})
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- job{seed: startSeed + int64(i)}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(failures, func(i, j int) bool { return failures[i].Params.Seed < failures[j].Params.Seed })
	return failures
}

// Systematic explores forced schedule-choice prefixes: every prefix of
// length horizon over alphabet [0, fanout) is run on base (fanout^horizon
// runs — keep both small). Because early decisions happen around the
// initial steal/acquire/release churn, short prefixes enumerate exactly
// the protocol interleavings seed sampling may miss.
func Systematic(base Params, horizon, fanout int) []Failure {
	if horizon < 1 || fanout < 1 {
		return nil
	}
	total := 1
	for i := 0; i < horizon; i++ {
		total *= fanout
	}
	var failures []Failure
	prefix := make([]byte, horizon)
	for k := 0; k < total; k++ {
		x := k
		for i := range prefix {
			prefix[i] = byte(x % fanout)
			x /= fanout
		}
		p := base
		p.Choices = append([]byte(nil), prefix...)
		if _, err := Run(p); err != nil {
			failures = append(failures, Failure{Params: p.withDefaults(), Err: err})
		}
	}
	return failures
}

// Minimize greedily shrinks a failing configuration — fewer PEs, shorter
// producer chain, narrower fan-out — re-running after each candidate
// reduction and keeping it only if the run still fails. The result is the
// smallest configuration (under this greedy order) that still reproduces
// a failure from the same seed.
func Minimize(f Failure) Failure {
	cur := f.Params.withDefaults()
	cur.Stats = nil
	stillFails := func(p Params) (error, bool) {
		_, err := Run(p)
		return err, err != nil
	}
	for improved := true; improved; {
		improved = false
		for _, cand := range []Params{
			{PEs: cur.PEs / 2}, {PEs: cur.PEs - 1},
			{Depth: cur.Depth / 2}, {Depth: cur.Depth - 1},
			{Width: cur.Width / 2}, {Width: cur.Width - 1},
		} {
			next := cur
			if cand.PEs > 0 && cand.PEs >= 2 && cand.PEs < cur.PEs {
				next.PEs = cand.PEs
			} else if cand.Depth > 0 && cand.Depth < cur.Depth {
				next.Depth = cand.Depth
			} else if cand.Width > 0 && cand.Width < cur.Width {
				next.Width = cand.Width
			} else {
				continue
			}
			if err, bad := stillFails(next); bad {
				cur = next
				f = Failure{Params: next, Err: err}
				improved = true
				break
			}
		}
	}
	return f
}

// ReproLine returns the one-line command that replays a configuration
// through the TestReplaySeed entry point.
func ReproLine(p Params) string {
	p = p.withDefaults()
	s := fmt.Sprintf("go test ./internal/sim -run 'TestReplaySeed' -sim.seed=%d -sim.pes=%d -sim.depth=%d -sim.width=%d",
		p.Seed, p.PEs, p.Depth, p.Width)
	if p.Chaos {
		s += " -sim.chaos"
	}
	if p.QueueCap != 0 {
		s += fmt.Sprintf(" -sim.qcap=%d", p.QueueCap)
	}
	if p.Protocol != pool.SWS {
		s += " -sim.protocol=" + p.Protocol.String()
	}
	if len(p.Kill) > 0 {
		s += fmt.Sprintf(" -sim.killrank=%d -sim.killat=%v", p.Kill[0].Rank, p.Kill[0].At)
	}
	if p.InitialMembers > 0 {
		s += fmt.Sprintf(" -sim.members=%d", p.InitialMembers)
	}
	for _, c := range p.Churn {
		if c.Join {
			s += fmt.Sprintf(" -sim.join=%d@%v", c.Rank, c.At)
		} else {
			s += fmt.Sprintf(" -sim.drain=%d@%v", c.Rank, c.At)
		}
	}
	return s
}

// ChurnForSeed derives a reproducible membership-churn schedule from a
// seed: the world starts one rank short (the highest rank parked), that
// rank joins at a seed-derived virtual time inside the first two
// milliseconds, and a seed-derived victim among ranks [1, pes-1) drains
// shortly after — so every churned run exercises a join and a drain
// racing live steal traffic. Returns the initial-member count alongside
// the schedule. Needs pes >= 3 (rank 0 audits, one joins, one drains);
// smaller worlds get an empty schedule.
func ChurnForSeed(seed int64, pes int) (initialMembers int, churn []shmem.SimChurn) {
	if pes < 3 {
		return 0, nil
	}
	u := uint64(seed)*0x9E3779B97F4A7C15 + 0xABCDEF
	// Early enough that both transitions land inside even a small BPC
	// run's virtual lifetime (a 4-PE depth-6 run spans ~500µs virtual).
	joinAt := 20*time.Microsecond + time.Duration(u%8)*5*time.Microsecond
	drainRank := 1 + int((u>>16)%uint64(pes-2)) // in [1, pes-1): never the auditor, never the joiner
	drainAt := joinAt + 10*time.Microsecond + time.Duration((u>>32)%8)*10*time.Microsecond
	return pes - 1, []shmem.SimChurn{
		{Rank: pes - 1, At: joinAt, Join: true},
		{Rank: drainRank, At: drainAt},
	}
}

// KillForSeed derives one reproducible crash injection from a seed: a
// victim among ranks [1, pes) (rank 0 stays alive as the BPC result
// auditor) at a virtual time in [20µs, 170µs], inside the run — a default
// 6×12 run ends after about 170µs of virtual time — so the survivors'
// steals and termination waves meet the crash rather than follow it.
func KillForSeed(seed int64, pes int) shmem.SimKill {
	if pes < 2 {
		return shmem.SimKill{Rank: -1}
	}
	u := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	return shmem.SimKill{
		Rank: 1 + int(u%uint64(pes-1)),
		At:   20*time.Microsecond + time.Duration((u>>8)%16)*10*time.Microsecond,
	}
}
