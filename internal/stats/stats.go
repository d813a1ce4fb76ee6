// Package stats collects and aggregates the measurements the paper's
// evaluation reports: per-PE task and steal counters, steal vs search time
// (§5.3's definitions: time in successful steal operations vs time spent
// in failed attempts looking for work), and cross-run summaries
// (mean, relative standard deviation, relative range — Figures 7d/8d).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sws/internal/obs"
)

// PE holds one processing element's counters for one run.
type PE struct {
	TasksExecuted uint64
	TasksSpawned  uint64

	StealsAttempted  uint64 // every steal call against a victim
	StealsSuccessful uint64
	StealsEmpty      uint64
	StealsDisabled   uint64
	TasksStolen      uint64

	// Failure-handling counters (zero on fault-free runs).
	//
	// StealTransportErrs counts steal attempts that failed at the transport
	// layer (peer dead, op timeout, injected drop/partition) and were
	// absorbed by quarantining the victim instead of failing the run.
	StealTransportErrs uint64
	// StealsQuarantined counts steal attempts skipped because the chosen
	// victim was quarantined.
	StealsQuarantined uint64
	// TasksLost is the detector's ledger estimate (sum spawned minus sum
	// executed, using the last counters read from dead PEs) of tasks lost
	// when the run terminated in degraded mode. It is an estimate, not a
	// bound: a task counted lost may have executed on the dead PE before it
	// crashed (at-least-once), while descendants a lost task never spawned
	// appear in no ledger at all.
	TasksLost uint64
	// TasksWrittenOff counts tasks in completion-epoch slots force-closed
	// by this PE after a thief died mid-steal.
	TasksWrittenOff uint64
	// DeadPEs is the number of peers this PE's world had declared dead by
	// the end of the run; Degraded marks a run that terminated over partial
	// membership.
	DeadPEs  uint64
	Degraded bool

	// Elastic-membership activity (zero unless the world's membership
	// layer is engaged). TasksForwarded counts tasks this PE handed to
	// live members while draining out (or while parked, for stragglers
	// that raced its departure); MemberDrains/MemberJoins count this PE's
	// own completed voluntary transitions.
	TasksForwarded uint64
	MemberDrains   uint64
	MemberJoins    uint64

	Acquires uint64
	Releases uint64

	// TasksSpilled counts spawns that found the split queue full and went
	// to the owner's private deque instead.
	TasksSpilled uint64

	// RemoteSpawnsSent/Recv count tasks pushed into / drained from the
	// remote-spawn mailboxes.
	RemoteSpawnsSent uint64
	RemoteSpawnsRecv uint64

	// StealTime is time spent in successful steal operations; SearchTime
	// is time spent in failed attempts (the paper's split).
	StealTime  time.Duration
	SearchTime time.Duration
	// ExecTime estimates the time spent in task bodies: the pool times one
	// body in 64 per worker (every body when tracing) and scales the sum
	// by executed/timed.
	ExecTime time.Duration

	// IdleIters counts scheduler iterations that found nothing to do —
	// no local work, no acquirable shared work, no stealable victim — and
	// ended in a relax. A high ratio of IdleIters to TasksExecuted means
	// the PE spent the run starved rather than working.
	IdleIters uint64

	// Workers breaks the PE's execution down by worker goroutine (worker
	// 0 is the owner, which also performs all steal and search work): one
	// row per worker, so a single row on the paper's single-threaded PE.
	Workers []Worker

	// Lat holds per-operation latency distributions recorded during the
	// run, keyed by operation name: the pool-level "exec", "steal",
	// "search", "acquire", "release", and the shmem per-op keys prefixed
	// "shmem/" (e.g. "shmem/fetch-add/remote"). Merged bucket-wise by Add,
	// so Run.Total carries whole-run distributions.
	Lat map[string]obs.HistSnap
}

// Worker is one worker goroutine's share of its PE's work.
type Worker struct {
	// PE and ID locate the worker: rank, then worker index within the PE
	// (0 is the owner worker).
	PE, ID int

	TasksExecuted uint64
	TasksSpawned  uint64
	ExecTime      time.Duration
	// StealTime/SearchTime are nonzero only for the owner worker, which
	// performs all inter-PE protocol work on its workers' behalf.
	StealTime  time.Duration
	SearchTime time.Duration
	// IdleIters counts executor loop iterations that found the intra-PE
	// tier empty (owner: scheduler iterations with nothing to do).
	IdleIters uint64
	// FromRing counts the tasks this worker took from the PE's shared ring
	// rather than from its own private part: the intra-PE transfers, which
	// is what the tier's synchronization is paid in proportion to.
	FromRing uint64
}

// numeric is the one list of a counter struct's numeric fields, which Add
// and Delta both walk: a field missing from it is a field neither carries,
// and TestPEAdd checks by reflection that none is. The exceptions to "Add
// sums, Delta subtracts" are data here, not code there. It is all arrays
// and returned by value, so a walk allocates nothing (a fleet takes one per
// PE per job); a struct with fewer fields leaves the tails nil.
type numeric struct {
	sums  [19]*uint64 // Delta saturates at zero
	times [3]*time.Duration
	// peak is a world-level figure, identical on every PE that observed
	// it: Add takes the max, so Run.Total reports the world's count once.
	peak *uint64
	// level is a watermark, not a per-job rate: Add takes the max and
	// Delta keeps the later value.
	level *uint64
}

func (p *PE) numeric() numeric {
	return numeric{
		sums: [...]*uint64{
			&p.TasksExecuted, &p.TasksSpawned, &p.StealsAttempted, &p.StealsSuccessful,
			&p.StealsEmpty, &p.StealsDisabled, &p.TasksStolen, &p.StealTransportErrs,
			&p.StealsQuarantined, &p.TasksWrittenOff, &p.TasksForwarded, &p.MemberDrains,
			&p.MemberJoins, &p.Acquires, &p.Releases, &p.TasksSpilled,
			&p.RemoteSpawnsSent, &p.RemoteSpawnsRecv, &p.IdleIters,
		},
		times: [...]*time.Duration{&p.StealTime, &p.SearchTime, &p.ExecTime},
		peak:  &p.TasksLost,
		level: &p.DeadPEs,
	}
}

func (w *Worker) numeric() numeric {
	return numeric{
		sums:  [19]*uint64{&w.TasksExecuted, &w.TasksSpawned, &w.IdleIters, &w.FromRing},
		times: [...]*time.Duration{&w.ExecTime, &w.StealTime, &w.SearchTime},
	}
}

// add accumulates o's fields into s's.
func (s numeric) add(o numeric) {
	for i, p := range s.sums {
		if p != nil {
			*p += *o.sums[i]
		}
	}
	for i, p := range s.times {
		*p += *o.times[i]
	}
	if s.peak != nil {
		*s.peak, *s.level = max(*s.peak, *o.peak), max(*s.level, *o.level)
	}
}

// sub turns d's fields, a copy of the later snapshot's, into their
// difference from prev's.
func (d numeric) sub(prev numeric) {
	for i, p := range d.sums {
		if p != nil {
			*p -= min(*p, *prev.sums[i])
		}
	}
	for i, p := range d.times {
		*p -= *prev.times[i]
	}
	if d.peak != nil {
		*d.peak -= min(*d.peak, *prev.peak)
	}
}

// Add accumulates o into s.
func (s *PE) Add(o PE) {
	s.numeric().add(o.numeric())
	s.Degraded = s.Degraded || o.Degraded
	// Per-worker rows concatenate (each carries its PE), so Run.Total
	// keeps the full breakdown.
	s.Workers = append(s.Workers, o.Workers...)
	if len(o.Lat) > 0 {
		if s.Lat == nil {
			s.Lat = make(map[string]obs.HistSnap, len(o.Lat))
		}
		for k, v := range o.Lat {
			h := s.Lat[k]
			h.Add(v)
			s.Lat[k] = h
		}
	}
}

// Delta returns s minus prev, for scoping cumulative fleet counters to
// one job: prev is the snapshot taken when the job started, s the
// snapshot at its end. Counters subtract (saturating at zero, since
// max-aggregated figures like TasksLost are cumulative watermarks rather
// than sums); worker rows are differenced row by row — both snapshots
// come from one pool, which lists its workers in the same (PE, ID) order
// every time — so a warm multi-worker fleet reports per-job worker
// breakdowns rather than fleet-lifetime totals. A job's own delta is
// counters only (Pool.RunJob snapshots no histograms, so Lat is nil);
// when both snapshots carry latency histograms, as full Pool.Stats
// snapshots do, they subtract bucket-wise. DeadPEs and Degraded are
// preserved from s: once a run has seen a death the remaining jobs ran
// over partial membership.
func (s PE) Delta(prev PE) PE {
	d := s
	d.numeric().sub(prev.numeric())
	if len(s.Workers) > 0 {
		d.Workers = append([]Worker(nil), s.Workers...)
		for i := range min(len(d.Workers), len(prev.Workers)) {
			d.Workers[i].numeric().sub(prev.Workers[i].numeric())
		}
	}
	if len(s.Lat) > 0 {
		d.Lat = make(map[string]obs.HistSnap, len(s.Lat))
		for k, v := range s.Lat {
			if pv, ok := prev.Lat[k]; ok {
				d.Lat[k] = v.Sub(pv)
			} else {
				d.Lat[k] = v
			}
		}
	}
	return d
}

// Run aggregates one whole-pool execution.
type Run struct {
	PEs      []PE
	Elapsed  time.Duration // the slowest PE's time on Ctx.Now (paper: max runtime)
	Protocol string
}

// Total returns the element-wise sum over all PEs.
func (r Run) Total() PE {
	var t PE
	for _, p := range r.PEs {
		t.Add(p)
	}
	return t
}

// Throughput returns executed tasks per second across the whole run.
func (r Run) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total().TasksExecuted) / r.Elapsed.Seconds()
}

// Summary describes a sample of repeated measurements.
type Summary struct {
	N        int
	Mean, SD float64
	Min, Max float64
	RelSD    float64 // SD / Mean (Fig 7d/8d's "SD" series)
	RelRange float64 // (Max-Min) / Mean (Fig 7d/8d's "Range" series)
	Median   float64
	// P50/P95/P99 are sample percentiles (linear interpolation between
	// order statistics; P50 equals Median).
	P50, P95, P99 float64
}

// percentile returns the q-th percentile (q in [0, 1]) of an ascending
// sorted sample using linear interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summarize computes a Summary over xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.SD = math.Sqrt(ss / float64(len(xs)-1))
	}
	if s.Mean != 0 {
		s.RelSD = s.SD / s.Mean
		s.RelRange = (s.Max - s.Min) / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	s.P50 = percentile(sorted, 0.50)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// Durations converts a slice of durations to float64 seconds for
// Summarize.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.3g min=%.6g max=%.6g p50=%.6g p95=%.6g p99=%.6g relSD=%.2f%% relRange=%.2f%%",
		s.N, s.Mean, s.SD, s.Min, s.Max, s.P50, s.P95, s.P99, 100*s.RelSD, 100*s.RelRange)
}
