package inspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sws/internal/shmem"
	"sws/internal/trace"
)

// stealRec is the A and B words of a trace.Steal event.
func stealRec(victim int, outcome int64, claimOp, copyOp shmem.Op, claim, rest time.Duration) (a, b int64) {
	return trace.StealRecord{Victim: victim, Outcome: outcome, ClaimOp: int(claimOp), CopyOp: int(copyOp), Claim: claim, Rest: rest}.Pack()
}

// synthDumps builds a two-rank journal pair for one complete steal (rank 0
// stealing three tasks from rank 1 after a damping probe), one attempt that
// only the probe answered (rank 1 finding rank 2 still empty), a steal of
// rank 2's that only its victim's applies witness (rank 2 died mid-steal),
// a dead-rank observation from each side of the world, and a supervisor
// kill journal.
func synthDumps() []trace.FlightDump {
	span := uint64(1)<<48 | 7  // initiator rank 0, seq 7
	probe := uint64(2)<<48 | 1 // initiator rank 1, seq 1
	lost := uint64(3)<<48 | 4  // initiator rank 2, which died
	ns := func(n int64) time.Duration { return time.Duration(n) }
	a, b := stealRec(1, 3, shmem.OpFetchAdd, shmem.OpGetV, 150, 200)
	pa, pb := stealRec(2, 0, shmem.OpLoad, -1, 55, 5)
	r0 := trace.FlightDump{Rank: 0, NumPEs: 3, Reason: "steal failed: peer dead", WallNS: 1000, Events: []trace.Event{
		{At: ns(450), PE: 0, Kind: trace.Steal, A: a, B: b, Span: span},
		{At: ns(500), PE: 0, Kind: trace.QueueDepth, A: 0, B: 0},
		{At: ns(600), PE: 0, Kind: trace.PeerState, A: 2, B: int64(shmem.PeerDead)},
	}}
	r1 := trace.FlightDump{Rank: 1, NumPEs: 3, Reason: "steal failed: peer dead", WallNS: 1000, Events: []trace.Event{
		{At: ns(130), PE: 1, Kind: trace.VictimOp, A: int64(shmem.OpLoad), B: 0, Span: span},
		{At: ns(230), PE: 1, Kind: trace.VictimOp, A: int64(shmem.OpFetchAdd), B: 0, Span: span},
		{At: ns(360), PE: 1, Kind: trace.VictimOp, A: int64(shmem.OpGetV), B: 0, Span: span},
		{At: ns(420), PE: 1, Kind: trace.VictimOp, A: int64(shmem.OpStoreNBI), B: 0, Span: span},
		{At: ns(560), PE: 1, Kind: trace.VictimOp, A: int64(shmem.OpFetchAdd), B: 2, Span: lost},
		{At: ns(710), PE: 1, Kind: trace.Steal, A: pa, B: pb, Span: probe},
		{At: ns(720), PE: 1, Kind: trace.PeerState, A: 2, B: int64(shmem.PeerDead)},
	}}
	sup := trace.FlightDump{Rank: -1, NumPEs: 3, Reason: "supervisor: SIGKILLed rank 2", WallNS: 1000, Events: []trace.Event{
		{At: ns(650), PE: -1, Kind: trace.PeerState, A: 2, B: int64(shmem.PeerDead)},
	}}
	return []trace.FlightDump{r0, r1, sup}
}

func TestBuildMergesSpanTree(t *testing.T) {
	r := Build(synthDumps())
	if r.NumPEs != 3 {
		t.Fatalf("NumPEs = %d, want 3", r.NumPEs)
	}
	if len(r.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(r.Spans))
	}
	s := r.Spans[0]
	if s.Initiator != 0 || s.Victim != 1 {
		t.Fatalf("span endpoints = %d -> %d, want 0 -> 1", s.Initiator, s.Victim)
	}
	if !s.HasStart || !s.HasEnd || s.Outcome != 3 {
		t.Fatalf("span completion = start %v end %v outcome %d, want complete stolen(3)",
			s.HasStart, s.HasEnd, s.Outcome)
	}
	if s.Start != 100 || s.Duration() != 350 {
		t.Fatalf("span = %v from %v, want 350ns from 100ns", s.Duration(), s.Start)
	}
	if len(s.Ops) != 2 || len(s.VictimOps) != 4 {
		t.Fatalf("ops = %d initiator + %d victim, want 2 + 4", len(s.Ops), len(s.VictimOps))
	}
	for i, want := range []OpSample{
		{At: 250, PE: 0, Op: shmem.OpFetchAdd, Phase: "claim", Dur: 150},
		{At: 450, PE: 0, Op: shmem.OpGetV, Phase: "copy", Dur: 200},
	} {
		if s.Ops[i] != want {
			t.Errorf("initiator op %d = %+v, want %+v", i, s.Ops[i], want)
		}
	}
	for i, p := range []string{"probe", "claim", "copy", "ack"} {
		if s.VictimOps[i].Phase != p {
			t.Errorf("victim op %d phase = %q, want %q", i, s.VictimOps[i].Phase, p)
		}
	}
	if p := r.Spans[1]; p.Initiator != 1 || p.Victim != 2 || p.OutcomeString() != "empty" || len(p.Ops) != 1 || p.Ops[0].Phase != "probe" {
		t.Fatalf("probe-only span = %+v, want 1 -> 2, empty, one probe op", p)
	}
}

// TestVictimOnlySpanIsLost: a steal whose thief died before its record was
// written is seen only through its victim's applies. It is a span all the
// same, against the victim that journaled them, and it reads as lost: an
// error in the thief's starvation row, and no slowest-span candidate.
func TestVictimOnlySpanIsLost(t *testing.T) {
	r := Build(synthDumps())
	lost := r.Spans[2]
	if lost.HasStart || lost.HasEnd || lost.OutcomeString() != "lost" {
		t.Fatalf("victim-only span = start %v end %v %q, want lost", lost.HasStart, lost.HasEnd, lost.OutcomeString())
	}
	if lost.Initiator != 2 || lost.Victim != 1 || len(lost.Ops) != 0 || len(lost.VictimOps) != 1 {
		t.Fatalf("victim-only span = %+v, want 2 -> 1 with one victim apply", lost)
	}
	if st := r.Starvation()[2]; st.Attempts != 1 || st.Errors != 1 {
		t.Fatalf("rank 2 starvation = %+v, want 1 attempt counted as an error", st)
	}
	for _, s := range r.SlowestSpans(0) {
		if s == lost {
			t.Fatal("a lost span is among the slowest")
		}
	}
}

func TestBuildDeadRanksAndWitnesses(t *testing.T) {
	r := Build(synthDumps())
	if got := r.DeadRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadRanks = %v, want [2]", got)
	}
	// Three independent witnesses: ranks 0 and 1, and the supervisor.
	if len(r.Dead) != 3 {
		t.Fatalf("death observations = %d, want 3", len(r.Dead))
	}
	supervisors := 0
	for _, d := range r.Dead {
		if d.Rank != 2 {
			t.Errorf("observation names rank %d, want 2", d.Rank)
		}
		if d.Supervisor() {
			supervisors++
		}
	}
	if supervisors != 1 {
		t.Fatalf("supervisor observations = %d, want 1", supervisors)
	}
}

func TestPhaseStatsAndHeatmap(t *testing.T) {
	r := Build(synthDumps())
	ps := r.PhaseStats()
	byPhase := map[string]PhaseStat{}
	for _, p := range ps {
		byPhase[p.Phase] = p
	}
	if p := byPhase["probe"]; p.Count != 1 || p.Min != 55 {
		t.Fatalf("probe stat = %+v, want count 1, 55ns", p)
	}
	if p := byPhase["claim"]; p.Count != 1 || p.Mean != 150 {
		t.Fatalf("claim stat = %+v, want count 1, mean 150ns", p)
	}
	if p := byPhase["copy"]; p.Count != 1 || p.Mean != 200 {
		t.Fatalf("copy stat = %+v, want count 1, mean 200ns", p)
	}
	hm := r.VictimHeatmap()
	if hm[0][1] != 1 || hm[1][2] != 1 || hm[2][1] != 1 || hm[0][2] != 0 {
		t.Fatalf("heatmap = %v, want [0][1]=1 [1][2]=1 [2][1]=1 [0][2]=0", hm)
	}
	st := r.Starvation()
	if st[0].Attempts != 1 || st[0].Stolen != 1 || st[0].IdleSamples != 1 {
		t.Fatalf("rank 0 starvation = %+v, want 1 attempt, 1 stolen, 1 idle sample", st[0])
	}
	if st[1].Attempts != 1 || st[1].Empty != 1 {
		t.Fatalf("rank 1 starvation = %+v, want 1 attempt, found empty", st[1])
	}
}

func TestWriteTextNamesDeadRankAndPhases(t *testing.T) {
	r := Build(synthDumps())
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dead ranks: [2]",
		"supervisor kill journal",
		"rank 0's failure detector",
		"probe", "claim", "copy", "ack",
		"stolen(3)",
		"victim heatmap",
		"starvation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTextTimeline: ShowTimeline (sws-uts -trace N) appends the merged
// timeline, one event per line, oldest first; without it the report ends at
// its tables.
func TestWriteTextTimeline(t *testing.T) {
	r := Build(tracedDumps(t))
	var plain, full bytes.Buffer
	if err := r.WriteText(&plain); err != nil {
		t.Fatal(err)
	}
	r.ShowTimeline = true
	if err := r.WriteText(&full); err != nil {
		t.Fatal(err)
	}
	tail, ok := strings.CutPrefix(full.String(), plain.String())
	if !ok || strings.Contains(plain.String(), "timeline") {
		t.Fatalf("the timeline is not a suffix of the plain report:\n%s", full.String())
	}
	lines := strings.Split(strings.TrimSpace(tail), "\n")
	if len(lines) != 6 || !strings.Contains(lines[1], "exec") || !strings.Contains(lines[4], "steal") || !strings.Contains(lines[5], "terminated") {
		t.Errorf("timeline section = %q, want a heading and the 5 events in time order", lines)
	}
}

// tracedDumps is what a traced two-PE run leaves in its trace set: PE 0
// executes a task and releases; PE 1 runs a comm op outside any steal,
// steals from PE 0, and the world terminates.
func tracedDumps(t *testing.T) []trace.FlightDump {
	t.Helper()
	s, err := trace.NewSet(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	us := time.Microsecond
	s.PE(0).RecordAt(10*us, trace.TaskExec, 3, int64(5*us), 0)
	s.PE(0).RecordAt(12*us, trace.Release, 0, 4, 0)
	s.PE(1).RecordAt(15*us, trace.CommOp, int64(shmem.OpFetchAdd), int64(2*us), 0)
	a, b := stealRec(0, 2, shmem.OpFetchAdd, shmem.OpGet, us, 2*us)
	s.PE(1).RecordAt(20*us, trace.Steal, a, b, uint64(2)<<48|1)
	s.PE(1).RecordAt(30*us, trace.Terminated, 0, 0, 0)
	return s.Dumps("traced run")
}

// tiedDumps records identical timestamps on three PEs, out of rank order.
func tiedDumps(t *testing.T) []trace.FlightDump {
	t.Helper()
	s, err := trace.NewSet(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	at := 5 * time.Microsecond
	s.PE(2).RecordAt(at, trace.TaskSpawn, 0, 0, 0)
	s.PE(0).RecordAt(at, trace.TaskSpawn, 1, 0, 0)
	s.PE(1).RecordAt(at, trace.TaskSpawn, 2, 0, 0)
	s.PE(1).RecordAt(at, trace.Release, 0, 1, 0) // same PE, same At: recording order
	return s.Dumps("ties")
}

// TestWritePerfettoIsValidTraceJSON: the one Perfetto writer renders flight
// journals and trace sets alike, into a valid trace-event document with one
// named track per PE, and renders the same input to the same bytes.
func TestWritePerfettoIsValidTraceJSON(t *testing.T) {
	type event = map[string]any
	has := func(evs []event, want event) bool {
	next:
		for _, e := range evs {
			for k, v := range want {
				if e[k] != v {
					continue next
				}
			}
			return true
		}
		return false
	}
	for _, tc := range []struct {
		name  string
		dumps []trace.FlightDump
		want  []event // each must match some emitted event on every key given
	}{
		{"flight journals: span slice, paired flow, victim instants", synthDumps(), []event{
			{"cat": "steal", "ph": "X"}, {"cat": "steal", "ph": "s"}, {"cat": "steal", "ph": "f"},
			{"cat": "steal-victim", "ph": "i"},
		}},
		{"trace set: exec and comm-op slices end at their timestamps", tracedDumps(t), []event{
			{"name": "exec", "ph": "X", "ts": 5.0, "dur": 5.0, "tid": 0.0},
			{"name": "comm-op", "ph": "X", "ts": 13.0, "dur": 2.0, "tid": 1.0},
		}},
		{"trace set: a steal is a slice and a flow from victim to thief", tracedDumps(t), []event{
			{"name": "steal stolen(2)", "ph": "X", "ts": 17.0, "dur": 3.0, "tid": 1.0},
			{"name": "steal", "ph": "s", "tid": 0.0, "id": "steal-1"},
			{"name": "steal", "ph": "f", "tid": 1.0, "id": "steal-1", "bp": "e"},
			{"name": "release", "ph": "i", "tid": 0.0}, {"name": "terminated", "ph": "i", "tid": 1.0},
		}},
		{"ties on the timestamp break by PE, then recording order", tiedDumps(t), nil},
	} {
		r := Build(tc.dumps)
		var buf, again bytes.Buffer
		if err := r.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		if err := Build(tc.dumps).WritePerfetto(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Errorf("%s: identical input rendered to different bytes", tc.name)
		}
		var doc struct {
			TraceEvents []event `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: perfetto output is not JSON: %v", tc.name, err)
		}
		for pe := 0; pe < r.NumPEs; pe++ {
			track := event{"name": "thread_name", "ph": "M", "tid": float64(pe)}
			if !has(doc.TraceEvents, track) {
				t.Errorf("%s: no thread_name metadata for PE %d", tc.name, pe)
			}
		}
		for _, want := range tc.want {
			if !has(doc.TraceEvents, want) {
				t.Errorf("%s: no event like %v in:\n%s", tc.name, want, buf.String())
			}
		}
	}

	var order []string
	for _, e := range Build(tiedDumps(t)).Timeline {
		order = append(order, fmt.Sprintf("%d:%v", e.PE, e.Kind))
	}
	if got, want := strings.Join(order, " "), "0:spawn 1:spawn 1:release 2:spawn"; got != want {
		t.Errorf("merged order of tied events = %q, want %q", got, want)
	}
}

// churnDumps builds journals for an elastic run: rank 2 joins (observed
// by itself and by rank 0, rank 0 later), then rank 1 drains (observed
// by rank 0 only). Rank 0's journal repeats its join observation to
// prove deduplication.
func churnDumps() []trace.FlightDump {
	ns := func(n int64) time.Duration { return time.Duration(n) }
	r0 := trace.FlightDump{Rank: 0, NumPEs: 3, Reason: "post-run dump", WallNS: 1000, Events: []trace.Event{
		{At: ns(220), PE: 0, Kind: trace.MemberJoin, A: 2, B: 2},
		{At: ns(230), PE: 0, Kind: trace.MemberJoin, A: 2, B: 2}, // duplicate observation
		{At: ns(500), PE: 0, Kind: trace.MemberDrain, A: 1, B: 4},
	}}
	r2 := trace.FlightDump{Rank: 2, NumPEs: 3, Reason: "post-run dump", WallNS: 1000, Events: []trace.Event{
		{At: ns(200), PE: 2, Kind: trace.MemberJoin, A: 2, B: 2},
	}}
	return []trace.FlightDump{r0, r2}
}

func TestMembershipTimeline(t *testing.T) {
	r := Build(churnDumps())
	if got := r.ChurnedRanks(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ChurnedRanks = %v, want [1 2]", got)
	}
	// Three observations survive dedup: rank 2's join seen by itself and
	// by rank 0 (the repeat dropped), and rank 1's drain seen by rank 0.
	if len(r.Membership) != 3 {
		t.Fatalf("membership observations = %d, want 3: %+v", len(r.Membership), r.Membership)
	}
	first := r.Membership[0]
	if first.Rank != 2 || !first.Join || first.Observer != 2 || first.At != 200 {
		t.Fatalf("earliest observation = %+v, want rank 2 join self-observed at 200ns", first)
	}
	last := r.Membership[2]
	if last.Rank != 1 || last.Join || last.Epoch != 4 {
		t.Fatalf("last observation = %+v, want rank 1 drain at epoch 4", last)
	}
	if r.Membership[1].Kind() != "join" || last.Kind() != "drain" {
		t.Fatalf("Kind() renders %q/%q, want join/drain", r.Membership[1].Kind(), last.Kind())
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"membership churn: ranks [1 2]",
		"rank 2 join completed",
		"rank 1 drain completed",
		"(epoch 4), observed by rank 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := r.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	joins, drains := 0, 0
	for _, e := range doc.TraceEvents {
		if e["cat"] != "membership" {
			continue
		}
		if e["ph"] != "i" {
			t.Fatalf("membership event must be an instant, got ph=%v", e["ph"])
		}
		switch e["name"] {
		case "rank 2 joined":
			joins++
		case "rank 1 drained":
			drains++
		}
	}
	// The Perfetto export shows the raw timeline (no dedup): 3 join
	// observations and 1 drain.
	if joins != 3 || drains != 1 {
		t.Fatalf("perfetto membership instants = %d joins, %d drains; want 3 and 1", joins, drains)
	}
}

// TestStaticWorldReportOmitsChurn pins the quiet path: a run with no
// membership events renders no churn section.
func TestStaticWorldReportOmitsChurn(t *testing.T) {
	r := Build(synthDumps())
	if len(r.Membership) != 0 || len(r.ChurnedRanks()) != 0 {
		t.Fatalf("static world reports churn: %+v", r.Membership)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "membership churn") {
		t.Fatalf("static-world report mentions membership churn:\n%s", buf.String())
	}
}

func TestLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, d := range synthDumps() {
		f := trace.NewFlight(d.Rank, len(d.Events))
		for _, e := range d.Events {
			f.RecordAt(e.At, e.Kind, e.A, e.B, e.Span)
		}
		name := trace.FlightDumpName(d.Rank)
		if d.Rank < 0 {
			name = "flight-supervisor.jsonl"
		}
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteTo(file, d.NumPEs, d.Reason); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Dumps) != 3 || len(r.Spans) != 3 {
		t.Fatalf("loaded %d dumps, %d spans; want 3 dumps, 3 spans", len(r.Dumps), len(r.Spans))
	}
	if got := r.DeadRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadRanks after round-trip = %v, want [2]", got)
	}
}
