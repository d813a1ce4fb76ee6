package shmem

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/obs"
	"sws/internal/trace"
)

// Op identifies a one-sided operation kind for counting and fault injection.
type Op int

const (
	OpPut Op = iota
	OpGet
	OpFetchAdd
	OpSwap
	OpCompareSwap
	OpLoad
	OpStore
	OpStoreNBI
	OpAddNBI
	OpPutNBI
	OpFetchAddGet
	OpGetV
	OpPutSignal
	numOps
)

var opNames = [...]string{
	OpPut:         "put",
	OpGet:         "get",
	OpFetchAdd:    "fetch-add",
	OpSwap:        "swap",
	OpCompareSwap: "compare-swap",
	OpLoad:        "atomic-fetch",
	OpStore:       "atomic-store",
	OpStoreNBI:    "atomic-store-nbi",
	OpAddNBI:      "atomic-add-nbi",
	OpPutNBI:      "put-nbi",
	OpFetchAddGet: "fetch-add-get",
	OpGetV:        "getv",
	OpPutSignal:   "put-signal",
}

// The trace package renders CommOp timeline events by op code; give it the
// authoritative code→name table so Perfetto slices carry readable names
// for every op, including ones added after the trace format shipped.
func init() { trace.SetCommOpNames(opNames[:]) }

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Blocking reports whether the operation blocks the initiator until it
// completes at the target.
func (o Op) Blocking() bool {
	switch o {
	case OpStoreNBI, OpAddNBI, OpPutNBI:
		return false
	default:
		return true
	}
}

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
// protocol's communications). A PE's operations on its own heap are plain
// memory accesses and are not timed. Recording is a single atomic bucket
// increment — no mutex on the hot path — so the histograms are safe to
// scrape live while the PE runs.
type Counters struct {
	ops      [numOps]atomic.Uint64
	bytesPut atomic.Uint64
	bytesGot atomic.Uint64
	local    atomic.Uint64

	lat [numOps]obs.Hist
}

// recordLat adds one latency sample for a remote op.
func (c *Counters) recordLat(op Op, d time.Duration) { c.lat[op].Record(d) }

// LatencySnapshots returns the non-empty per-op latency distributions,
// keyed "<op>/remote" (e.g. "fetch-add/remote"). Safe to call while the PE
// is running.
func (c *Counters) LatencySnapshots() map[string]obs.HistSnap {
	out := make(map[string]obs.HistSnap)
	for op := Op(0); op < numOps; op++ {
		if s := c.lat[op].Snapshot(); !s.Empty() {
			out[op.String()+"/remote"] = s
		}
	}
	return out
}

func (c *Counters) countRemote(op Op, payload int) {
	c.ops[op].Add(1)
	switch op {
	case OpPut, OpPutNBI, OpPutSignal:
		c.bytesPut.Add(uint64(payload))
	case OpGet, OpGetV:
		c.bytesGot.Add(uint64(payload))
	}
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
	var d CounterSnapshot
	for i := range s.Ops {
		d.Ops[i] = s.Ops[i] - earlier.Ops[i]
	}
	d.BytesPut = s.BytesPut - earlier.BytesPut
	d.BytesGot = s.BytesGot - earlier.BytesGot
	d.Local = s.Local - earlier.Local
	return d
}

// Add returns the element-wise sum s + other, for aggregating the
// counters of several ranks into one world-level snapshot.
func (s CounterSnapshot) Add(other CounterSnapshot) CounterSnapshot {
	var d CounterSnapshot
	for i := range s.Ops {
		d.Ops[i] = s.Ops[i] + other.Ops[i]
	}
	d.BytesPut = s.BytesPut + other.BytesPut
	d.BytesGot = s.BytesGot + other.BytesGot
	d.Local = s.Local + other.Local
	return d
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
