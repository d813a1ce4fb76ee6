package inspect

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"sws/internal/shmem"
	"sws/internal/trace"
)

// WriteText renders the full post-mortem report: journal inventory,
// dead-rank findings, per-phase latency, the slowest spans with their
// merged initiator+victim trees, the victim heatmap, and starvation.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "flight post-mortem: %d journal(s), %d PEs, %d events, %d spans\n",
		len(r.Dumps), r.NumPEs, len(r.Timeline), len(r.Spans))
	for _, d := range r.Dumps {
		who := fmt.Sprintf("rank %d", d.Rank)
		if d.Rank < 0 {
			who = "supervisor"
		}
		fmt.Fprintf(w, "  %-10s %5d events, %4d dropped  reason: %s\n", who, len(d.Events), d.Dropped, d.Reason)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, "  (%d ring slots overwritten or torn across all journals)\n", r.Dropped)
	}

	fmt.Fprintln(w)
	if len(r.Dead) == 0 {
		fmt.Fprintln(w, "dead ranks: none observed")
	} else {
		fmt.Fprintf(w, "dead ranks: %v\n", r.DeadRanks())
		for _, d := range r.Dead {
			obs := fmt.Sprintf("rank %d's failure detector", d.Observer)
			if d.Supervisor() {
				obs = "supervisor kill journal"
			}
			fmt.Fprintf(w, "  rank %d declared dead at +%v by %s\n", d.Rank, d.At.Round(time.Microsecond), obs)
		}
	}

	if len(r.Membership) > 0 {
		fmt.Fprintf(w, "\nmembership churn: ranks %v\n", r.ChurnedRanks())
		for _, m := range r.Membership {
			fmt.Fprintf(w, "  rank %d %s completed at +%v (epoch %d), observed by rank %d\n",
				m.Rank, m.Kind(), m.At.Round(time.Microsecond), m.Epoch, m.Observer)
		}
	}

	if ps := r.PhaseStats(); len(ps) > 0 {
		fmt.Fprintln(w, "\nsteal latency by phase (initiator side):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  phase\tcount\tmin\tmean\tp95\tmax")
		for _, p := range ps {
			fmt.Fprintf(tw, "  %s\t%d\t%v\t%v\t%v\t%v\n",
				p.Phase, p.Count, p.Min, p.Mean, p.P95, p.Max)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	top := r.TopSpans
	if top <= 0 {
		top = 5
	}
	if slow := r.SlowestSpans(top); len(slow) > 0 {
		fmt.Fprintln(w, "\nslowest steal spans:")
		for _, s := range slow {
			r.writeSpanTree(w, s)
		}
	}

	if hm := r.VictimHeatmap(); hm != nil {
		fmt.Fprintln(w, "\nvictim heatmap (rows: thief, cols: victim, cells: attempts):")
		tw := tabwriter.NewWriter(w, 2, 4, 1, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "  \t")
		for v := 0; v < r.NumPEs; v++ {
			fmt.Fprintf(tw, "v%d\t", v)
		}
		fmt.Fprintln(tw)
		for i, row := range hm {
			fmt.Fprintf(tw, "  t%d\t", i)
			for _, c := range row {
				fmt.Fprintf(tw, "%d\t", c)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if st := r.Starvation(); len(st) > 0 {
		fmt.Fprintln(w, "\nstarvation / steal productivity:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  pe\tattempts\tstolen\tempty\terrors\tidle-depth-samples")
		for _, s := range st {
			idle := "-"
			if s.Samples > 0 {
				idle = fmt.Sprintf("%d/%d", s.IdleSamples, s.Samples)
			}
			fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%s\n",
				s.PE, s.Attempts, s.Stolen, s.Empty, s.Errors, idle)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if r.ShowTimeline {
		fmt.Fprintln(w, "\ntimeline (merged, oldest retained first):")
		for _, e := range r.Timeline {
			fmt.Fprintln(w, e)
		}
	}
	return nil
}

// writeSpanTree renders one span as a merged initiator+victim tree.
func (r *Report) writeSpanTree(w io.Writer, s *Span) {
	fmt.Fprintf(w, "  span %#x: PE %d -> PE %d, %v, %s\n",
		s.ID, s.Initiator, s.Victim, s.Duration().Round(time.Nanosecond), s.OutcomeString())
	// Interleave both sides by time so the causal order reads top-down.
	type line struct {
		at   time.Duration
		text string
	}
	var lines []line
	for _, op := range s.Ops {
		lines = append(lines, line{op.At, fmt.Sprintf("├─ [initiator %d] %-10s %-12v took=%v", op.PE, op.Phase, op.Op, op.Dur)})
	}
	for _, op := range s.VictimOps {
		lines = append(lines, line{op.At, fmt.Sprintf("│    └─ [victim %d] %-10s %-12v applied", op.PE, op.Phase, op.Op)})
	}
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j].at < lines[j-1].at; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	for _, l := range lines {
		fmt.Fprintf(w, "    %s  (+%v)\n", l.text, (l.at - s.Start).Round(time.Nanosecond))
	}
}

// perfettoEvent is one Chrome Trace Event (the subset Perfetto needs).
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usAt(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func hexSpan(id uint64) string { return "0x" + strconv.FormatUint(id, 16) }

// WritePerfetto exports the merged timeline as Chrome Trace Event JSON
// (loadable in ui.perfetto.dev and chrome://tracing): one track per PE,
// steal spans as slices enclosing their per-phase slices, victim applies
// as instants on the victim's track, flow arrows joining the two sides,
// and one from the victim's track to the thief's per successful steal.
// What only a traced run records renders too: task executions and comm ops
// outside a span as slices ending at their recorded timestamp, every other
// scheduling event as an instant.
func (r *Report) WritePerfetto(w io.Writer) error {
	var evs []perfettoEvent
	for pe := 0; pe < r.NumPEs; pe++ {
		evs = append(evs, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)},
		})
	}
	evs = append(evs, perfettoEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: r.NumPEs,
		Args: map[string]any{"name": "supervisor"},
	})
	steals := 0
	for _, s := range r.Spans {
		sid := hexSpan(s.ID)
		if s.HasStart && s.HasEnd {
			evs = append(evs, perfettoEvent{
				Name: "steal " + s.OutcomeString(), Cat: "steal", Ph: "X",
				Ts: usAt(s.Start), Dur: usAt(s.End - s.Start),
				Pid: 0, Tid: s.Initiator, ID: sid,
				Args: map[string]any{"span": sid, "victim": s.Victim, "outcome": s.OutcomeString()},
			})
		}
		if s.HasEnd && s.Outcome > 0 {
			steals++
			id := "steal-" + strconv.Itoa(steals)
			evs = append(evs,
				perfettoEvent{Name: "steal", Cat: "steal", Ph: "s", ID: id, Ts: usAt(s.End), Pid: 0, Tid: s.Victim},
				perfettoEvent{Name: "steal", Cat: "steal", Ph: "f", BP: "e", ID: id, Ts: usAt(s.End), Pid: 0, Tid: s.Initiator})
		}
		for _, op := range s.Ops {
			// The journal records completion time; the slice starts one
			// phase earlier.
			start := op.At - op.Dur
			if start < 0 {
				start = 0
			}
			evs = append(evs, perfettoEvent{
				Name: op.Phase, Cat: "steal-op", Ph: "X",
				Ts: usAt(start), Dur: usAt(op.Dur),
				Pid: 0, Tid: op.PE,
				Args: map[string]any{"span": sid, "op": op.Op.String()},
			})
		}
		for i, op := range s.VictimOps {
			evs = append(evs, perfettoEvent{
				Name: op.Phase + " @victim", Cat: "steal-victim", Ph: "i",
				Ts: usAt(op.At), Pid: 0, Tid: op.PE,
				Args: map[string]any{"span": sid, "op": op.Op.String()},
			})
			if i == 0 && s.HasStart {
				// One flow arrow per span: initiator start -> first
				// victim-side apply.
				evs = append(evs, perfettoEvent{
					Name: "span", Cat: "steal", Ph: "s", Ts: usAt(s.Start),
					Pid: 0, Tid: s.Initiator, ID: sid,
				})
				evs = append(evs, perfettoEvent{
					Name: "span", Cat: "steal", Ph: "f", Ts: usAt(op.At),
					Pid: 0, Tid: op.PE, ID: sid,
				})
			}
		}
	}
	slice := func(e trace.Event, name, cat string, args map[string]any) perfettoEvent {
		// B is the duration and the event was recorded at completion, so
		// the slice starts that much earlier.
		start := max(e.At-time.Duration(e.B), 0)
		return perfettoEvent{Name: name, Cat: cat, Ph: "X", Ts: usAt(start), Dur: usAt(e.At - start), Pid: 0, Tid: e.PE, Args: args}
	}
	for _, e := range r.Timeline {
		instant := perfettoEvent{Name: e.Kind.String(), Cat: "sched", Ph: "i", Ts: usAt(e.At), Pid: 0, Tid: e.PE,
			Args: map[string]any{"a": e.A, "b": e.B}}
		switch e.Kind {
		case trace.Steal, trace.VictimOp:
			continue // drawn with their span above
		case trace.CommOp:
			instant = slice(e, "comm-op", "comm", map[string]any{"op": shmem.Op(e.A).String(), "ns": e.B})
		case trace.TaskExec:
			instant = slice(e, "exec", "task", map[string]any{"task": e.A})
		case trace.QueueDepth:
			instant.Ph, instant.Cat, instant.Args = "C", "", map[string]any{"local": e.A, "shared": e.B}
		case trace.PeerState:
			if e.PE < 0 {
				instant.Tid = r.NumPEs
			}
			instant.Name, instant.Cat = fmt.Sprintf("peer %d -> %v", e.A, shmem.PeerState(e.B)), "liveness"
			instant.Args = map[string]any{"peer": e.A, "state": shmem.PeerState(e.B).String()}
		case trace.EpochFlip:
			instant.Cat, instant.Args = "queue", map[string]any{"epoch": e.A, "moved": e.B}
		case trace.MemberJoin, trace.MemberDrain:
			verb := "joined"
			if e.Kind == trace.MemberDrain {
				verb = "drained"
			}
			instant.Name, instant.Cat = fmt.Sprintf("rank %d %s", e.A, verb), "membership"
			instant.Args = map[string]any{"rank": e.A, "epoch": e.B}
		}
		evs = append(evs, instant)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ns",
	})
}

// WritePerfettoFile writes the Perfetto JSON to path.
func (r *Report) WritePerfettoFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
