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
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// Params configures one simulated run: a BPC workload (zero task
// durations, so all time is protocol time) on a sim-transport world. The
// world and the pool are described the way every other program describes
// them, by a shmem.Config and a pool.Config; Params adds only what those
// cannot say.
type Params struct {
	// World is the simulated world: NumPEs (default 4), DeadAfter (default
	// 500µs of virtual time when a kill is scheduled: the wall-clock
	// library default would blow the virtual-time budget) and Sim — the
	// seed that drives the whole run, chaos, a forced schedule-choice
	// prefix, the virtual-time and step budgets, and the kill and churn
	// schedules. Transport is always TransportSim and Sim.Log the
	// harness's; Params.Fault, when set, builds Fault. With a kill
	// scheduled the exactly-once oracle relaxes to at-most-once plus
	// survivor termination: executed <= total, no hang, and the victim's
	// own unwind is the only tolerated error. Churn transitions are
	// voluntary and loss-free, so the oracle stays strict under them.
	World shmem.Config
	// Pool configures the pool (Protocol, QueueCapacity); its Seed is
	// World.Sim.Seed, so one seed replays the whole run.
	Pool pool.Config
	// Depth is the BPC producer-chain length. Default 6.
	Depth int
	// Width is the number of consumers per producer. Default 12.
	Width int
	// Fault, if non-nil, is built once per run from the seed, letting
	// fault streams replay along with the schedule.
	Fault func(seed int64) shmem.FaultInjector
	// InitialMembers engages elastic membership with only ranks
	// [0, InitialMembers) starting live; the rest start parked (a Join
	// churn entry needs its rank parked first). Zero means all PEs start
	// live (membership still engages when World.Sim.Churn is non-empty).
	InitialMembers int
	// Stats, if non-nil, receives the element-wise sum of per-PE pool
	// counters after the run — sweep tests use it to prove a configuration
	// actually exercises the machinery under test (e.g. overflow).
	Stats *stats.PE
}

func (p Params) withDefaults() Params {
	if p.World.NumPEs == 0 {
		p.World.NumPEs = 4
	}
	if p.Depth == 0 {
		p.Depth = 6
	}
	if p.Width == 0 {
		p.Width = 12
	}
	if len(p.World.Sim.Kill) > 0 && p.World.DeadAfter == 0 {
		p.World.DeadAfter = 500 * time.Microsecond
	}
	return p
}

// flags lists p's run as the -sim.* flags TestReplaySeed reads, without
// their "-sim." prefix; replayable is false when p sets something no flag
// names (a Fault factory, a pool or world field the sim tests never vary).
func (p Params) flags() (flags []string, replayable bool) {
	p = p.withDefaults()
	sim := p.World.Sim
	flags = []string{fmt.Sprintf("seed=%d", sim.Seed), fmt.Sprintf("pes=%d", p.World.NumPEs),
		fmt.Sprintf("depth=%d", p.Depth), fmt.Sprintf("width=%d", p.Width)}
	if sim.Chaos {
		flags = append(flags, "chaos")
	}
	if len(sim.Choices) > 0 {
		choices := make([]string, len(sim.Choices))
		for i, c := range sim.Choices {
			choices[i] = fmt.Sprint(c)
		}
		flags = append(flags, "choices="+strings.Join(choices, ","))
	}
	if p.Pool.Protocol != pool.SWS {
		flags = append(flags, "protocol="+p.Pool.Protocol.String())
	}
	if p.Pool.QueueCapacity != 0 {
		flags = append(flags, fmt.Sprintf("qcap=%d", p.Pool.QueueCapacity))
	}
	for i, k := range sim.Kill {
		if i == 0 {
			flags = append(flags, fmt.Sprintf("killrank=%d", k.Rank), fmt.Sprintf("killat=%v", k.At))
		} else {
			flags = append(flags, fmt.Sprintf("kill=%d@%v", k.Rank, k.At))
		}
	}
	if p.World.DeadAfter != 0 {
		flags = append(flags, fmt.Sprintf("deadafter=%v", p.World.DeadAfter))
	}
	if p.InitialMembers > 0 {
		flags = append(flags, fmt.Sprintf("members=%d", p.InitialMembers))
	}
	for _, c := range sim.Churn {
		kind := "drain"
		if c.Join {
			kind = "join"
		}
		flags = append(flags, fmt.Sprintf("%s=%d@%v", kind, c.Rank, c.At))
	}
	if sim.MaxVirtualTime != 0 {
		flags = append(flags, fmt.Sprintf("maxtime=%v", sim.MaxVirtualTime))
	}
	if sim.MaxSteps != 0 {
		flags = append(flags, fmt.Sprintf("maxsteps=%d", sim.MaxSteps))
	}
	// What is left once every flagged field is cleared no flag can name.
	// Transport, Sim.Log and Pool.Seed are the harness's own.
	rest := p
	rest.World.NumPEs, rest.World.DeadAfter, rest.World.Transport, rest.World.Sim = 0, 0, 0, shmem.SimOptions{}
	rest.Pool.Protocol, rest.Pool.QueueCapacity, rest.Pool.Seed = 0, 0, 0
	rest.Depth, rest.Width, rest.InitialMembers, rest.Stats = 0, 0, 0, nil
	return flags, reflect.DeepEqual(rest, Params{})
}

func (p Params) String() string {
	flags, _ := p.flags()
	return strings.Join(flags, " ")
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
	wc := p.World
	wc.Transport, wc.Sim.Log = shmem.TransportSim, &log
	if p.Fault != nil {
		wc.Fault = p.Fault(wc.Sim.Seed)
	}
	w, err := shmem.NewWorld(wc)
	if err != nil {
		return nil, err
	}
	if p.InitialMembers > 0 || len(wc.Sim.Churn) > 0 {
		n := p.InitialMembers
		if n == 0 {
			n = wc.NumPEs
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
	pc := p.Pool
	pc.Seed = wc.Sim.Seed
	run, err := pool.RunOnce(w, pc, func(_ int, reg *pool.Registry) error { return wl.Register(reg) }, wl.Seed, nil)
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
		if len(wc.Sim.Kill) == 0 || !errors.Is(err, shmem.ErrPEKilled) || w.Err() != nil {
			return log.Bytes(), err
		}
	}
	want := wl.Params.TotalTasks()
	got := wl.Producers() + wl.Consumers()
	if len(wc.Sim.Kill) > 0 {
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
				p.World.Sim.Seed = j.seed
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
	sort.Slice(failures, func(i, j int) bool { return failures[i].Params.World.Sim.Seed < failures[j].Params.World.Sim.Seed })
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
		p.World.Sim.Choices = append([]byte(nil), prefix...)
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
// a failure from the same seed. It keeps every rank the run schedules a
// kill or churn on, or starts live: a world too small for one would drop
// it and fail, or pass, for another reason.
func Minimize(f Failure) Failure {
	cur := f.Params.withDefaults()
	cur.Stats = nil
	minPEs := max(2, cur.InitialMembers)
	for _, k := range cur.World.Sim.Kill {
		minPEs = max(minPEs, k.Rank+1)
	}
	for _, c := range cur.World.Sim.Churn {
		minPEs = max(minPEs, c.Rank+1)
	}
	// Six candidates a round, in order: PEs halved, PEs less one, then the
	// same for Depth and for Width. The first that still fails is taken.
	for improved := true; improved; {
		improved = false
		for i := 0; i < 6 && !improved; i++ {
			next := cur
			v, least := &next.World.NumPEs, minPEs
			switch i / 2 {
			case 1:
				v, least = &next.Depth, 1
			case 2:
				v, least = &next.Width, 1
			}
			if i%2 == 0 {
				*v /= 2
			} else {
				*v--
			}
			if *v < least {
				continue
			}
			if _, err := Run(next); err != nil {
				cur, f, improved = next, Failure{Params: next, Err: err}, true
			}
		}
	}
	return f
}

// ReproLine returns the one-line command that replays a configuration
// through the TestReplaySeed entry point, or says why flags cannot.
func ReproLine(p Params) string {
	flags, replayable := p.flags()
	s := "go test ./internal/sim -run 'TestReplaySeed' -sim." + strings.Join(flags, " -sim.")
	if !replayable {
		s += "  # not a replay: the run sets what no -sim flag names (a Fault factory)"
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
