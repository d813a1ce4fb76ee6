// Package obs is the runtime's observability layer: lock-free latency
// histograms recorded on the communication and scheduling hot paths, a
// pull-based metrics gatherer rendering Prometheus text and JSON, and an
// opt-in HTTP server exposing /metrics, expvar, and pprof while a run is
// in flight.
//
// The histogram follows the power-of-two-bucket design used by HdrHistogram
// front-ends and the Go runtime's internal timeHistogram: recording is a
// single atomic increment of one bucket counter, so it is safe (and cheap)
// on paths that must not take a mutex — e.g. every blocking one-sided
// shmem operation.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets. Bucket 0 holds
// zero-duration samples; bucket i (i >= 1) holds samples in
// [2^(i-1), 2^i) nanoseconds. The top bucket absorbs everything at or
// above its lower bound (~4.6 minutes), which no per-op latency reaches.
const NumBuckets = 40

// SampleEvery is the runtime's one clock-sampling period. A hot path whose
// event costs about as much as its two clock reads — a blocking remote op —
// times one event in this many (the first and every SampleEvery-th after
// it) and records it as one unweighted sample; the exact event count is
// kept beside the histogram. With a trace ring attached every event is
// timed, because every event gets its own record. It is also a busy
// worker's beat, one clock read that cedes the core only once the PE has
// held it for a compute quantum; task bodies are not sampled (the pool
// books bursts).
const SampleEvery = 64

// Hist is a lock-free latency histogram. The zero value is ready to use.
// Record is safe for concurrent use; Snapshot may run concurrently with
// recording and observes each bucket atomically.
type Hist struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns)) // 1 + floor(log2(ns)) for ns > 0
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Record adds one sample. This is a single atomic add.
func (h *Hist) Record(d time.Duration) {
	h.buckets[bucketOf(int64(d))].Add(1)
}

// RecordN adds n samples of the same magnitude.
func (h *Hist) RecordN(d time.Duration, n uint64) {
	h.buckets[bucketOf(int64(d))].Add(n)
}

// Snapshot copies the current bucket counts.
func (h *Hist) Snapshot() HistSnap {
	var s HistSnap
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// BucketLo returns the inclusive lower bound of bucket i in nanoseconds.
func BucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHi returns the exclusive upper bound of bucket i in nanoseconds
// (the top bucket reports its lower bound doubled, as a rendering bound).
func BucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	return 1 << i
}

// HistSnap is an immutable copy of a histogram. The zero value is an
// empty snapshot; snapshots merge with Add (bucket-wise sum), which is
// how per-PE distributions aggregate into whole-run distributions.
type HistSnap struct {
	Counts [NumBuckets]uint64
}

// Count returns the total number of recorded samples.
func (s HistSnap) Count() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Empty reports whether no samples were recorded.
func (s HistSnap) Empty() bool { return s.Count() == 0 }

// Add merges o into s bucket-wise.
func (s *HistSnap) Add(o HistSnap) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Sub returns the bucket-wise difference s - earlier, for attributing
// samples to a window of activity.
func (s HistSnap) Sub(earlier HistSnap) HistSnap {
	var d HistSnap
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - earlier.Counts[i]
	}
	return d
}

// Quantile estimates the q-th quantile (q in [0, 1]) by locating the
// bucket containing the target rank and interpolating linearly within its
// bounds. An empty snapshot yields 0.
func (s HistSnap) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank in [1, total].
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := BucketLo(i), BucketHi(i)
			// Fraction of the way through this bucket's samples.
			frac := float64(rank-cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(BucketHi(NumBuckets - 1))
}

// Mean estimates the mean using each bucket's geometric midpoint.
func (s HistSnap) Mean() time.Duration {
	var total uint64
	var sum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		total += c
		mid := (float64(BucketLo(i)) + float64(BucketHi(i))) / 2
		if i == 0 {
			mid = 0
		}
		sum += mid * float64(c)
	}
	if total == 0 {
		return 0
	}
	return time.Duration(sum / float64(total))
}

// Max estimates the largest recorded sample as the upper bound of the
// highest non-empty bucket.
func (s HistSnap) Max() time.Duration {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return time.Duration(BucketHi(i))
		}
	}
	return 0
}
