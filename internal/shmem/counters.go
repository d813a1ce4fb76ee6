package shmem

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/obs"
)

// Op identifies a one-sided operation kind for counting and fault injection.
type Op int

const (
	OpPut Op = iota
	OpGet
	OpFetchAdd
	OpCompareSwap
	OpLoad
	OpStore
	OpStoreNBI
	OpAddNBI
	OpFetchAddGet
	OpGetV
	OpPutSignal
	numOps
)

var opNames = [...]string{
	OpPut:         "put",
	OpGet:         "get",
	OpFetchAdd:    "fetch-add",
	OpCompareSwap: "compare-swap",
	OpLoad:        "atomic-fetch",
	OpStore:       "atomic-store",
	OpStoreNBI:    "atomic-store-nbi",
	OpAddNBI:      "atomic-add-nbi",
	OpFetchAddGet: "fetch-add-get",
	OpGetV:        "getv",
	OpPutSignal:   "put-signal",
}

func (o Op) String() string { return enumName(opNames[:], int(o), "Op") }

// enumName is the name of an enum's value v from its table, or type(v) for
// a value the table does not name.
func enumName(names []string, v int, typ string) string {
	if v >= 0 && v < len(names) && names[v] != "" {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, v)
}

// Blocking reports whether the operation blocks the initiator until it
// completes at the target.
func (o Op) Blocking() bool { return o != OpStoreNBI && o != OpAddNBI }

// Ops returns every operation kind, for callers that iterate per-op
// metrics (counts, latency histograms) without knowing the enum bounds.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Counters tallies the remote one-sided operations issued by one PE.
// Local (self-targeted) operations are counted separately: they are plain
// memory accesses and do not represent network traffic, which is what
// Figure 2 of the paper audits.
//
// Alongside the counts, Counters holds one latency histogram per remote Op
// (§5.3 of the paper attributes time, not just counts, to the steal
// protocol's communications), sampled as Ctx.latStart says: a histogram
// counts timed ops, ops counts every op. Own-heap ops are not timed.
// Recording is a single atomic bucket increment, safe to scrape live.
type Counters struct {
	ops      [numOps]atomic.Uint64
	bytesPut atomic.Uint64
	bytesGot atomic.Uint64
	local    atomic.Uint64

	lat [numOps]obs.Hist
}

// recordLat adds one latency sample for a remote op.
func (c *Counters) recordLat(op Op, d time.Duration) { c.lat[op].Record(d) }

// Latency returns op's remote latency distribution (empty if none was
// timed). Safe to call while the PE is running.
func (c *Counters) Latency(op Op) obs.HistSnap { return c.lat[op].Snapshot() }

// The families a PE's communication counters export.
var (
	mRemoteOps = obs.NewCounter("sws_shmem_remote_ops_total", "ops", "pe, op",
		"Remote one-sided operations by kind; op is the shmem op name: put, get, getv, fetch-add, fetch-add-get, compare-swap, atomic-fetch, atomic-store, put-signal (a remote spawn's put-with-signal) and the injections atomic-store-nbi, atomic-add-nbi.")
	mLocalOps = obs.NewCounter("sws_shmem_local_ops_total", "ops", "pe",
		"Self-targeted one-sided operations.")
	mBytes = obs.NewCounter("sws_shmem_bytes_total", "bytes", "pe, dir",
		"Payload bytes moved by puts (dir=put) and gets (dir=got).")
	mOpLatency = obs.NewQuantiles("sws_shmem_op_latency_seconds", "pe, op, target",
		"Remote one-sided op latency quantiles (p50/p95/p99) over sampled ops: one in 64 per kind, every op on a trace ring; target is always remote — a PE's ops on its own heap are memory accesses and are not timed.",
		"Remote one-sided op latency sample count: sampled ops (1 in 64 per kind), not all ops; exact counts are in sws_shmem_remote_ops_total.")
)

// Emit writes the counters' families for the PE labelled pe. Everything
// it reads is an atomic, so it is safe at any point during the run.
func (c *Counters) Emit(e *obs.Emitter, pe obs.Label) {
	snap := c.Snapshot()
	for op := Op(0); op < numOps; op++ {
		if n := snap.Of(op); n > 0 {
			e.Counter(mRemoteOps, float64(n), pe, obs.L("op", op.String()))
		}
		e.Quantiles(mOpLatency, c.Latency(op), pe, obs.L("op", op.String()), obs.L("target", "remote"))
	}
	e.Counter(mLocalOps, float64(snap.Local), pe)
	e.Counter(mBytes, float64(snap.BytesPut), pe, obs.L("dir", "put"))
	e.Counter(mBytes, float64(snap.BytesGot), pe, obs.L("dir", "got"))
}

// countRemote counts one remote op and returns its number among this PE's
// ops of its kind — unique even with several workers on one Ctx.
func (c *Counters) countRemote(op Op, payload int) uint64 {
	n := c.ops[op].Add(1)
	switch op {
	case OpPut, OpPutSignal:
		c.bytesPut.Add(uint64(payload))
	case OpGet, OpGetV:
		c.bytesGot.Add(uint64(payload))
	}
	return n
}

func (c *Counters) countLocal() { c.local.Add(1) }

// CounterSnapshot is an immutable copy of a Counters at a point in time.
type CounterSnapshot struct {
	Ops      [numOps]uint64
	BytesPut uint64
	BytesGot uint64
	Local    uint64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() CounterSnapshot {
	var s CounterSnapshot
	for i := range c.ops {
		s.Ops[i] = c.ops[i].Load()
	}
	s.BytesPut = c.bytesPut.Load()
	s.BytesGot = c.bytesGot.Load()
	s.Local = c.local.Load()
	return s
}

// Sub returns the per-op difference s - earlier, for attributing operation
// counts to a window of activity (e.g. one steal).
func (s CounterSnapshot) Sub(earlier CounterSnapshot) CounterSnapshot {
	return s.zip(earlier, func(a, b uint64) uint64 { return a - b })
}

// Add returns the element-wise sum s + other, for aggregating the
// counters of several ranks into one world-level snapshot.
func (s CounterSnapshot) Add(other CounterSnapshot) CounterSnapshot {
	return s.zip(other, func(a, b uint64) uint64 { return a + b })
}

// zip combines two snapshots field by field.
func (s CounterSnapshot) zip(o CounterSnapshot, f func(a, b uint64) uint64) CounterSnapshot {
	for i := range s.Ops {
		s.Ops[i] = f(s.Ops[i], o.Ops[i])
	}
	s.BytesPut, s.BytesGot, s.Local = f(s.BytesPut, o.BytesPut), f(s.BytesGot, o.BytesGot), f(s.Local, o.Local)
	return s
}

// Total returns the total number of remote operations in the snapshot.
func (s CounterSnapshot) Total() uint64 {
	var t uint64
	for _, v := range s.Ops {
		t += v
	}
	return t
}

// Blocking returns the number of remote blocking operations in the snapshot.
func (s CounterSnapshot) Blocking() uint64 {
	var t uint64
	for op := Op(0); op < numOps; op++ {
		if op.Blocking() {
			t += s.Ops[op]
		}
	}
	return t
}

// NonBlocking returns the number of remote non-blocking operations.
func (s CounterSnapshot) NonBlocking() uint64 { return s.Total() - s.Blocking() }

// Of returns the count for a single operation kind.
func (s CounterSnapshot) Of(op Op) uint64 { return s.Ops[op] }

func (s CounterSnapshot) String() string {
	out := ""
	for op := Op(0); op < numOps; op++ {
		if s.Ops[op] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", op, s.Ops[op])
	}
	if out == "" {
		out = "none"
	}
	return out
}
