// Package inspect turns event rings — the flight journals a failed run
// dumped, or the trace.Set a run recorded into (Set.Dumps) — into a
// post-mortem picture of the run: it merges the per-rank journals of one
// (or several) processes into a single causal timeline, reassembles steal
// attempts into span trees — the thief's one record of the attempt joined
// with the victim-side applies that carried its span ID over the wire —
// and derives the tables an engineer reaches for after a failure:
// per-phase steal latency, victim heatmaps, starvation, and which ranks
// died (and who saw them die).
package inspect

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"sws/internal/shmem"
	"sws/internal/trace"
)

// Span is one reassembled steal attempt: everything recorded under one
// span ID, on both sides of the wire. The thief's trace.Steal record gives
// its start, end, victim, outcome and Ops; a span seen only through its
// victim's applies (the thief died mid-steal, or its record was
// overwritten) has neither start nor end, and reads as lost.
type Span struct {
	ID        uint64
	Initiator int // recovered from the ID's high bits
	Victim    int // -1 if neither side's record names it
	Start     time.Duration
	End       time.Duration
	HasStart  bool
	HasEnd    bool
	// Outcome is the attempt's verdict: tasks obtained if > 0, 0 = empty,
	// -1 = disabled, -2 = error (meaningless unless HasEnd).
	Outcome int64
	// Ops are the thief's phases: the claim (the probe, when only the
	// damping probe answered; claim+copy when fused) and the copy, which
	// holds the completion store too; VictimOps are the victim-side
	// applies of the same wire traffic.
	Ops       []OpSample
	VictimOps []OpSample
}

// OpSample is one recorded sub-operation of a span.
type OpSample struct {
	At    time.Duration // when it ended
	PE    int           // recording PE (initiator for Ops, victim for VictimOps)
	Op    shmem.Op
	Phase string
	Dur   time.Duration // the initiator's phase time; 0 for victim applies
}

// SpanInitiator recovers the initiating rank from a span ID
// ((rank+1) << 48 | seq, assigned in wsq.Slots.Attempt).
func SpanInitiator(id uint64) int { return int(id>>48) - 1 }

// Phase names the steal-protocol phase an op code implements: the probe
// (damping read), the claim (fetch-add on the stealval; SDC's lock), the
// copy (get or vectored get of the task block), the ack (non-blocking
// completion store), or the fused claim+copy.
func Phase(op shmem.Op) string {
	switch op {
	case shmem.OpLoad:
		return "probe"
	case shmem.OpFetchAdd, shmem.OpCompareSwap:
		return "claim"
	case shmem.OpGet, shmem.OpGetV:
		return "copy"
	case shmem.OpStoreNBI:
		return "ack"
	case shmem.OpFetchAddGet:
		return "claim+copy"
	}
	return op.String()
}

// DeadRank is one rank the journals show as dead, with its witness: a
// surviving rank's failure detector, or the supervisor's kill journal
// (Observer < 0).
type DeadRank struct {
	Rank     int
	Observer int
	At       time.Duration
}

// Supervisor reports whether the observation came from the launcher's
// kill journal rather than a peer's failure detector.
func (d DeadRank) Supervisor() bool { return d.Observer < 0 }

// MemberEvent is one observed membership transition in an elastic world:
// a rank joining or draining, stamped with the membership epoch the
// observer held when it saw the transition complete.
type MemberEvent struct {
	Rank     int
	Observer int // rank whose journal recorded the transition
	Join     bool
	Epoch    uint64
	At       time.Duration
}

// Kind renders the transition direction.
func (m MemberEvent) Kind() string {
	if m.Join {
		return "join"
	}
	return "drain"
}

// Report is the merged post-mortem view of one dump directory.
type Report struct {
	Dumps    []trace.FlightDump
	NumPEs   int
	Timeline []trace.Event // all ranks, wall-aligned, oldest first
	Spans    []*Span       // by start time (unstarted spans last)
	Dead     []DeadRank
	// Membership lists observed join/drain transitions (elastic worlds),
	// one entry per (rank, direction, observer), earliest observation
	// kept, ordered by time.
	Membership []MemberEvent
	// Dropped totals overwritten ring slots plus unparseable journal
	// lines across all dumps.
	Dropped uint64
	// TopSpans caps the slow-span detail in WriteText (0 = default 5).
	TopSpans int
	// ShowTimeline makes WriteText end with the merged timeline itself,
	// one event per line.
	ShowTimeline bool
}

// LoadDir reads every flight journal in dir (flight-*.jsonl — per-rank
// dumps and the supervisor's kill journal alike) and builds the report.
func LoadDir(dir string) (*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("inspect: no flight-*.jsonl journals in %s", dir)
	}
	sort.Strings(paths)
	dumps := make([]trace.FlightDump, 0, len(paths))
	for _, p := range paths {
		d, err := trace.ReadFlightDumpFile(p)
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, d)
	}
	return Build(dumps), nil
}

// Build assembles a report from already-parsed dumps.
func Build(dumps []trace.FlightDump) *Report {
	r := &Report{Dumps: dumps, Timeline: trace.MergeFlightDumps(dumps)}
	for _, d := range dumps {
		if d.NumPEs > r.NumPEs {
			r.NumPEs = d.NumPEs
		}
		r.Dropped += d.Dropped
	}
	byID := make(map[uint64]*Span)
	span := func(id uint64) *Span {
		s, ok := byID[id]
		if !ok {
			s = &Span{ID: id, Initiator: SpanInitiator(id), Victim: -1}
			byID[id] = s
			r.Spans = append(r.Spans, s)
		}
		return s
	}
	for _, e := range r.Timeline {
		switch e.Kind {
		case trace.Steal:
			st, s := trace.UnpackSteal(e.A, e.B), span(e.Span)
			s.Victim, s.Outcome = st.Victim, st.Outcome
			s.Start, s.End, s.HasStart, s.HasEnd = e.At-st.Claim-st.Rest, e.At, true, true
			if op := shmem.Op(st.ClaimOp); st.ClaimOp >= 0 {
				s.Ops = append(s.Ops, OpSample{At: s.Start + st.Claim, PE: e.PE, Op: op, Phase: Phase(op), Dur: st.Claim})
			}
			if op := shmem.Op(st.CopyOp); st.CopyOp >= 0 {
				s.Ops = append(s.Ops, OpSample{At: e.At, PE: e.PE, Op: op, Phase: Phase(op), Dur: st.Rest})
			}
		case trace.VictimOp:
			op := shmem.Op(e.A)
			s := span(e.Span)
			s.VictimOps = append(s.VictimOps, OpSample{
				At: e.At, PE: e.PE, Op: op, Phase: Phase(op),
			})
			if s.Victim < 0 {
				s.Victim = e.PE
			}
		case trace.PeerState:
			if shmem.PeerState(e.B) == shmem.PeerDead {
				r.noteDead(int(e.A), e.PE, e.At)
			}
		case trace.MemberJoin:
			r.noteMember(int(e.A), e.PE, true, uint64(e.B), e.At)
		case trace.MemberDrain:
			r.noteMember(int(e.A), e.PE, false, uint64(e.B), e.At)
		}
	}
	sort.SliceStable(r.Spans, func(i, j int) bool {
		si, sj := r.Spans[i], r.Spans[j]
		if si.HasStart != sj.HasStart {
			return si.HasStart
		}
		if si.Start != sj.Start {
			return si.Start < sj.Start
		}
		return si.ID < sj.ID
	})
	sort.Slice(r.Dead, func(i, j int) bool {
		if r.Dead[i].Rank != r.Dead[j].Rank {
			return r.Dead[i].Rank < r.Dead[j].Rank
		}
		return r.Dead[i].Observer < r.Dead[j].Observer
	})
	sort.SliceStable(r.Membership, func(i, j int) bool {
		return r.Membership[i].At < r.Membership[j].At
	})
	return r
}

// noteDead records a death observation, keeping one entry per
// (rank, observer) pair (the earliest).
func (r *Report) noteDead(rank, observer int, at time.Duration) {
	for _, d := range r.Dead {
		if d.Rank == rank && d.Observer == observer {
			return
		}
	}
	r.Dead = append(r.Dead, DeadRank{Rank: rank, Observer: observer, At: at})
}

// noteMember records a membership-transition observation, keeping one
// entry per (rank, direction, observer) — the earliest, since the same
// observer journals each epoch refresh only once but distinct observers
// see the transition at different local times.
func (r *Report) noteMember(rank, observer int, join bool, epoch uint64, at time.Duration) {
	for _, m := range r.Membership {
		if m.Rank == rank && m.Observer == observer && m.Join == join {
			return
		}
	}
	r.Membership = append(r.Membership, MemberEvent{Rank: rank, Observer: observer, Join: join, Epoch: epoch, At: at})
}

// ChurnedRanks returns the distinct ranks that joined or drained,
// ascending.
func (r *Report) ChurnedRanks() []int {
	seen := map[int]bool{}
	var out []int
	for _, m := range r.Membership {
		if !seen[m.Rank] {
			seen[m.Rank] = true
			out = append(out, m.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// DeadRanks returns the distinct dead ranks, ascending.
func (r *Report) DeadRanks() []int {
	seen := map[int]bool{}
	var out []int
	for _, d := range r.Dead {
		if !seen[d.Rank] {
			seen[d.Rank] = true
			out = append(out, d.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// Duration returns a completed span's initiator-side wall time.
func (s *Span) Duration() time.Duration {
	if !s.HasStart || !s.HasEnd {
		return 0
	}
	return s.End - s.Start
}

// OutcomeString renders the span-end verdict.
func (s *Span) OutcomeString() string {
	switch {
	case !s.HasEnd:
		return "lost"
	case s.Outcome > 0:
		return fmt.Sprintf("stolen(%d)", s.Outcome)
	case s.Outcome == 0:
		return "empty"
	case s.Outcome == -1:
		return "disabled"
	default:
		return "error"
	}
}

// PhaseStat aggregates initiator-side latency for one protocol phase.
type PhaseStat struct {
	Phase string
	Count int
	Min   time.Duration
	Mean  time.Duration
	P95   time.Duration
	Max   time.Duration
}

// phaseOrder fixes the table row order to the protocol's op order.
var phaseOrder = []string{"probe", "claim", "claim+copy", "copy", "ack"}

// PhaseStats aggregates per-phase latency across every span.
func (r *Report) PhaseStats() []PhaseStat {
	samples := map[string][]time.Duration{}
	for _, s := range r.Spans {
		for _, op := range s.Ops {
			samples[op.Phase] = append(samples[op.Phase], op.Dur)
		}
	}
	var out []PhaseStat
	add := func(phase string) {
		ds := samples[phase]
		if len(ds) == 0 {
			return
		}
		delete(samples, phase)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		out = append(out, PhaseStat{
			Phase: phase, Count: len(ds),
			Min: ds[0], Mean: sum / time.Duration(len(ds)),
			P95: ds[len(ds)*95/100], Max: ds[len(ds)-1],
		})
	}
	for _, p := range phaseOrder {
		add(p)
	}
	var rest []string
	for p := range samples {
		rest = append(rest, p)
	}
	sort.Strings(rest)
	for _, p := range rest {
		add(p)
	}
	return out
}

// VictimHeatmap counts steal attempts per (initiator, victim) pair;
// cell [i][v] is how many spans rank i opened against rank v.
func (r *Report) VictimHeatmap() [][]int {
	n := r.NumPEs
	if n < 1 {
		return nil
	}
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for _, s := range r.Spans {
		if s.Initiator >= 0 && s.Initiator < n && s.Victim >= 0 && s.Victim < n {
			m[s.Initiator][s.Victim]++
		}
	}
	return m
}

// StarveStat summarizes one rank's hunt for work.
type StarveStat struct {
	PE          int
	Attempts    int // spans opened
	Stolen      int
	Empty       int
	Errors      int
	IdleSamples int // queue-depth samples with nothing runnable
	Samples     int // queue-depth samples total
}

// Starvation derives per-rank steal productivity and empty-queue
// residency from the span verdicts and queue-depth journal.
func (r *Report) Starvation() []StarveStat {
	n := r.NumPEs
	if n < 1 {
		return nil
	}
	out := make([]StarveStat, n)
	for i := range out {
		out[i].PE = i
	}
	for _, s := range r.Spans {
		if s.Initiator < 0 || s.Initiator >= n {
			continue
		}
		st := &out[s.Initiator]
		st.Attempts++
		switch {
		case !s.HasEnd || s.Outcome == -2:
			st.Errors++
		case s.Outcome > 0:
			st.Stolen++
		case s.Outcome == 0:
			st.Empty++
		}
	}
	for _, e := range r.Timeline {
		if e.Kind != trace.QueueDepth || e.PE < 0 || e.PE >= n {
			continue
		}
		out[e.PE].Samples++
		if e.A == 0 && e.B == 0 {
			out[e.PE].IdleSamples++
		}
	}
	return out
}

// SlowestSpans returns the k longest completed spans, slowest first.
func (r *Report) SlowestSpans(k int) []*Span {
	done := make([]*Span, 0, len(r.Spans))
	for _, s := range r.Spans {
		if s.HasStart && s.HasEnd {
			done = append(done, s)
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].Duration() > done[j].Duration() })
	if k > 0 && len(done) > k {
		done = done[:k]
	}
	return done
}
