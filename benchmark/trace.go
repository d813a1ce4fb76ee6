package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one job share Job; Parent is the span that caused it
// (0 for a job's root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced window's spans in memory; they are written out
// once, after the window. A nil recorder records nothing, which is how the
// untraced runs take the same code path.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	jobs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newJob hands out the identifier the spans of one job share.
func (r *recorder) newJob() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs++
	return r.jobs
}

// add records one finished span and returns its id.
func (r *recorder) add(job, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// selfTime is one span name's totals over a traced window, with the median
// and 99th percentile of the spans' durations: the absolute stage times
// (queue, run, ...) behind the per-layer shares.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// selfTimes sums, per span name, duration and self time: a span's
// duration minus the part of its interval its child spans cover. Children
// may overlap each other and stick out of the parent; only the union of
// their parts inside the parent counts as covered.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	durs := make(map[string][]float64)
	for _, s := range spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], float64(dur)/1e6)
	}
	for name, st := range out {
		sort.Float64s(durs[name])
		st.P50MS, st.P99MS = percentile(durs[name], 50), percentile(durs[name], 99)
		out[name] = st
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}
