package shmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel charges synthetic communication costs to one-sided
// operations so that protocol communication counts translate into measured
// time, as they do on a real RDMA fabric.
//
// The model is intentionally simple: a blocking one-sided operation costs
// one network round-trip plus a bandwidth term; a non-blocking injection
// costs only the (much smaller) injection overhead — its completion is
// asynchronous, exactly like a deferred-copy acknowledgement in the paper.
// Operations a PE performs on its own heap cost nothing: they are plain
// memory operations, just as in OpenSHMEM.
//
// The zero value charges nothing and is what correctness tests use.
type LatencyModel struct {
	// BlockingRTT is charged to every blocking remote operation
	// (Put, Get, FetchAdd64, CompareSwap64, Load64, Store64).
	BlockingRTT time.Duration
	// InjectOverhead is charged to every non-blocking remote injection
	// (Store64NBI, Add64NBI).
	InjectOverhead time.Duration
	// PerKB is an additional bandwidth charge per KiB of payload on
	// bulk transfers (Put/Get), pro-rated by byte.
	PerKB time.Duration
	// Occupy controls what a waiting PE does with its processor. False
	// (default): Ctx.Compute's wait — it yields on every iteration in a crowded
	// process (more PE and executor goroutines than GOMAXPROCS), so the other
	// PEs compute meanwhile, as on a cluster where a blocked core's time is
	// only its own loss, and holds the core otherwise. True: it never yields,
	// so on an oversubscribed host every round-trip anywhere slows the whole
	// world — protocol communication *counts* surface in wall-clock runtime,
	// the right model for compute-bound workloads whose overlapped waits would
	// otherwise be invisible. See DESIGN.md §4.7.
	Occupy bool
}

// Zero reports whether the model charges nothing.
func (m LatencyModel) Zero() bool {
	return m.BlockingRTT == 0 && m.InjectOverhead == 0 && m.PerKB == 0
}

// blockingCost returns the charge for a blocking transfer of n payload bytes.
func (m LatencyModel) blockingCost(n int) time.Duration {
	return m.BlockingRTT + m.bandwidth(n)
}

// charge waits out d of network time under the model's occupancy mode. It
// returns the clock value its wait loop last read — a timestamp the caller
// gets for free, used by the flight recorder to stamp the op's apply without
// a second clock read. A zero return means no wait happened (or the wait
// slept), so the caller must read the clock itself if it needs one.
func (m LatencyModel) charge(d time.Duration) time.Time {
	q := d // Occupy: no wait outlasts d since its last yield, so it never yields
	switch {
	case d <= 0: // the zero model, charged on every remote op: keep it free
		return time.Time{}
	case m.Occupy:
	case d >= 200*time.Microsecond:
		time.Sleep(d) // long enough for the scheduler to be accurate and courteous
		return time.Time{}
	default:
		q = computeQuantum()
	}
	at, _ := spin(d, q, new(atomic.Int64))
	return at
}

func (m LatencyModel) bandwidth(n int) time.Duration {
	if m.PerKB == 0 || n == 0 {
		return 0
	}
	return time.Duration(int64(m.PerKB) * int64(n) / 1024)
}

// spin is the one wait for simulated compute and modelled latency, on mono
// (time.Sleep is far too coarse), ceding the core whenever its holder has
// held it for q since *last (cede; a zero *last starts the hold here). It
// returns its last clock reading and yield count.
func spin(d, q time.Duration, last *atomic.Int64) (now time.Time, yields uint64) {
	if d <= 0 {
		return now, 0
	}
	start := mono()
	if last.Load() == 0 {
		last.Store(int64(start))
	}
	at := start
	for ; at-start < d; at = mono() {
		if cede(last, at, q) {
			yields++
		}
	}
	return epoch.Add(at), yields
}

// cede yields the processor once its holder has held it for q since last
// (q == 0: at once), at the mono reading now, and reports whether it did.
// Of a PE's goroutines one claims each quantum, so a PE cedes once per q.
func cede(last *atomic.Int64, now, q time.Duration) bool {
	if l := last.Load(); q > 0 && (now-time.Duration(l) < q || !last.CompareAndSwap(l, int64(now))) {
		return false
	}
	yield()
	return true
}

// epoch anchors mono, the package's clock for every timed edge: time.Since
// reads only the monotonic clock, one vDSO call where time.Now makes two
// (wall and monotonic).
var epoch = time.Now()

func mono() time.Duration { return time.Since(epoch) }

// hosted counts the PE goroutines World.Run starts and the executors pools
// run beside them, over every world; crowded caches hosted > GOMAXPROCS as
// Host moves it, since runtime.GOMAXPROCS takes the scheduler's lock.
var (
	hostMu  sync.Mutex
	hosted  int
	crowded atomic.Bool
)

// Host counts a PE or executor goroutine in (+1) or out (-1) and returns the
// count; a +1 without its -1 at exit leaves the process crowded for good.
func Host(delta int) int {
	hostMu.Lock()
	defer hostMu.Unlock()
	hosted += delta
	crowded.Store(hosted > runtime.GOMAXPROCS(0))
	return hosted
}

// computeQuantum is a compute wait's yield cadence. Crowded goroutines
// time-share the cores, and a yield per iteration lets each run as on a
// dedicated, slower core (DESIGN.md §4.7); otherwise it holds its core like
// real compute, yielding once per 50 µs for goroutines outside the count.
func computeQuantum() time.Duration {
	if crowded.Load() {
		return 0
	}
	return 50 * time.Microsecond
}

// yield cedes the processor to another goroutine.
func yield() { runtime.Gosched() }
