package inspect

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sws/internal/core"
	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// protocol is one steal protocol under test: how a PE opens its queue, and
// what one successful steal journals about its ops.
type protocol struct {
	name string
	open func(c *shmem.Ctx) (wsq.Queue, error)
	// claim and copy are the ops the thief's record names (-1: none);
	// victim are the ops the victim applies under the steal's span, and
	// untagged the blocking ops that carry none (traffic outside any span,
	// which a trace ring journals as comm-ops).
	claim, copy      shmem.Op
	victim, untagged []shmem.Op
}

var protocols = []protocol{{
	name:  "sws",
	open:  func(c *shmem.Ctx) (wsq.Queue, error) { return core.NewQueue(c, core.Options{Epochs: true}) },
	claim: shmem.OpFetchAdd, copy: shmem.OpGet,
	victim: []shmem.Op{shmem.OpFetchAdd, shmem.OpGet, shmem.OpStoreNBI},
}, {
	name: "sws-fused",
	open: func(c *shmem.Ctx) (wsq.Queue, error) {
		return core.NewQueue(c, core.Options{Epochs: true, Fused: true})
	},
	claim: shmem.OpFetchAddGet, copy: -1,
	victim: []shmem.Op{shmem.OpFetchAddGet, shmem.OpStoreNBI},
}, {
	name:  "sdc",
	open:  func(c *shmem.Ctx) (wsq.Queue, error) { return sdc.NewQueue(c, sdc.Options{}) },
	claim: shmem.OpCompareSwap, copy: shmem.OpGet,
	// lock, metadata get, tail put, unlock, block copy
	untagged: []shmem.Op{shmem.OpCompareSwap, shmem.OpGet, shmem.OpPut, shmem.OpStore, shmem.OpGet},
}}

// stealAndDump performs one real steal (rank 1 from rank 0) on the given
// transport with the flight recorder on, dumps the journals, and returns
// the merged report. This is the end-to-end check of the tentpole: a
// span ID assigned at the initiator survives the wire and the victim's
// applies come back tagged with it.
func stealAndDump(t *testing.T, kind shmem.TransportKind) *Report {
	t.Helper()
	return stealAndDumpInto(t, kind, protocols[0], nil)
}

// stealAndDumpInto is stealAndDump on protocol p's queues, with tr, when
// non-nil, attached as the two PEs' event rings before the steal.
func stealAndDumpInto(t *testing.T, kind shmem.TransportKind, p protocol, tr *trace.Set) *Report {
	t.Helper()
	dir := t.TempDir()
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: 2, HeapBytes: 8 << 20, Transport: kind, FlightDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		c.AttachTrace(tr.PE(c.Rank()))
		q, err := p.open(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < 64; i++ {
				if err := q.Push(task.Desc{Handle: 0, Payload: task.Args(uint64(i))}); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		tasks, out, err := q.Steal(0)
		if err != nil {
			return err
		}
		if out != wsq.Stolen || len(tasks) == 0 {
			t.Errorf("%v: steal outcome %v, %d tasks", kind, out, len(tasks))
		}
		if err := c.Quiet(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DumpFlight("test dump"); err != nil {
		t.Fatal(err)
	}
	r, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSpanPropagationRoundTrip runs the same single-steal scenario on
// every transport and checks the journals merge into one span tree with
// both initiator- and victim-side events.
func TestSpanPropagationRoundTrip(t *testing.T) {
	kinds := []shmem.TransportKind{
		shmem.TransportLocal, shmem.TransportTCP, shmem.TransportSim,
	}
	if shmem.ShmSupported() {
		kinds = append(kinds, shmem.TransportShm)
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := stealAndDump(t, kind)
			var stolen *Span
			for _, s := range r.Spans {
				if s.HasEnd && s.Outcome > 0 {
					stolen = s
					break
				}
			}
			if stolen == nil {
				t.Fatalf("no completed successful span in %d spans", len(r.Spans))
			}
			if stolen.Initiator != 1 || stolen.Victim != 0 {
				t.Fatalf("span endpoints %d -> %d, want 1 -> 0", stolen.Initiator, stolen.Victim)
			}
			if !stolen.HasStart || stolen.Duration() <= 0 {
				t.Fatalf("span incomplete: start=%v dur=%v", stolen.HasStart, stolen.Duration())
			}
			initiatorPhases := map[string]bool{}
			for _, op := range stolen.Ops {
				if op.PE != 1 {
					t.Errorf("initiator op recorded by PE %d, want 1", op.PE)
				}
				initiatorPhases[op.Phase] = true
			}
			for _, phase := range []string{"claim", "copy"} {
				if !initiatorPhases[phase] {
					t.Errorf("initiator side missing %q phase (have %v)", phase, initiatorPhases)
				}
			}
			if len(stolen.VictimOps) == 0 {
				t.Fatal("no victim-side events carried the span ID over the wire")
			}
			victimPhases := map[string]bool{}
			for _, op := range stolen.VictimOps {
				if op.PE != 0 {
					t.Errorf("victim op recorded by PE %d, want 0", op.PE)
				}
				victimPhases[op.Phase] = true
			}
			if !victimPhases["claim"] {
				t.Errorf("victim side missing the claim apply (have %v)", victimPhases)
			}

			// The merged tree must render with both sides, and the phase
			// table must carry per-phase latencies.
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, want := range []string{"[initiator 1]", "[victim 0]", "claim", "copy"} {
				if !strings.Contains(out, want) {
					t.Errorf("text report missing %q", want)
				}
			}
			// (Not under the sim: a wall-clock op duration means nothing in
			// virtual time, so sim worlds read no clock per op and journal
			// zero durations.)
			found := false
			for _, p := range r.PhaseStats() {
				if p.Phase == "claim" && p.Count > 0 && (p.Mean > 0 || kind == shmem.TransportSim) {
					found = true
				}
			}
			if !found {
				t.Error("phase stats missing a claim latency")
			}

			// And the Perfetto export must carry the span as a slice plus
			// victim instants tagged with the same hex span ID.
			var pbuf bytes.Buffer
			if err := r.WritePerfetto(&pbuf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(pbuf.String(), hexSpan(stolen.ID)) {
				t.Error("perfetto trace does not mention the span ID")
			}
		})
	}
}

// TestStealJournaledOnce: a PE has one event ring and a steal attempt is
// one record on it. On every protocol, on the world's flight ring and on an
// attached trace set alike, one successful steal leaves exactly one Steal
// record on the thief's ring — naming the victim, the tasks it brought and
// the ops that claimed and copied them — and, where its ops carry the
// span (SWS, SWS-Fused), each victim-side apply once on the victim's, and
// nothing else anywhere but, on a wall-clock trace ring, one comm-op per
// blocking op that carries no span (SDC's). With a trace set the set IS the world's ring, so a
// failure dump holds the same events, not a second recording of them.
func TestStealJournaledOnce(t *testing.T) {
	kinds := []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP, shmem.TransportSim}
	if shmem.ShmSupported() {
		kinds = append(kinds, shmem.TransportShm)
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, p := range protocols {
				for _, traced := range []bool{false, true} {
					name := p.name + "/flight"
					if traced {
						name = p.name + "/trace"
					}
					t.Run(name, func(t *testing.T) { stealJournaledOnce(t, kind, p, traced) })
				}
			}
		})
	}
}

func stealJournaledOnce(t *testing.T, kind shmem.TransportKind, p protocol, traced bool) {
	var tr *trace.Set
	if traced {
		var err error
		if tr, err = trace.NewSet(2, 256); err != nil {
			t.Fatal(err)
		}
	}
	dumped := stealAndDumpInto(t, kind, p, tr)
	journal := dumped.Timeline
	if traced {
		journal = tr.Merged()
		// The dump wrote the ring in use: event for event what the trace
		// set holds.
		if !reflect.DeepEqual(journal, dumped.Timeline) {
			t.Errorf("the dump holds %d events, the trace set %d:\n dump  %v\n trace %v",
				len(dumped.Timeline), len(journal), dumped.Timeline, journal)
		}
	}

	type entry struct {
		pe   int
		kind trace.Kind
		op   shmem.Op // of a victim-op or comm-op
	}
	var span uint64
	got := map[entry]int{}
	for _, e := range journal {
		if e.Span == 0 {
			if traced && e.Kind == trace.CommOp {
				got[entry{e.PE, e.Kind, shmem.Op(e.A)}]++
			} else {
				t.Errorf("event outside any span on a world that only stole: %v", e)
			}
			continue
		}
		if span == 0 {
			span = e.Span
		}
		if e.Span != span {
			t.Errorf("a second span %#x beside %#x: %v", e.Span, span, e)
		}
		en := entry{pe: e.PE, kind: e.Kind}
		switch e.Kind {
		case trace.VictimOp:
			en.op = shmem.Op(e.A)
		case trace.Steal:
			r := trace.UnpackSteal(e.A, e.B)
			if r.Victim != 0 || r.Outcome <= 0 || r.ClaimOp != int(p.claim) || r.CopyOp != int(p.copy) {
				t.Errorf("steal record %+v, want victim 0, tasks, claim %d, copy %d", r, p.claim, p.copy)
			}
		}
		got[en]++
	}
	want := map[entry]int{{1, trace.Steal, 0}: 1}
	for _, op := range p.victim {
		want[entry{0, trace.VictimOp, op}]++
	}
	for _, op := range p.untagged {
		if traced && kind != shmem.TransportSim { // the sim times no op
			want[entry{1, trace.CommOp, op}]++
		}
	}
	for en, n := range want {
		if got[en] != n {
			t.Errorf("PE %d journaled %v %v %d times, want %d", en.pe, en.kind, en.op, got[en], n)
		}
		delete(got, en)
	}
	for en, n := range got {
		t.Errorf("PE %d journaled %v %v %d times, want never", en.pe, en.kind, en.op, n)
	}
}

// TestSpanIDsAreUntaggedForNonStealTraffic checks plain Ctx operations
// stay span-free: only steal-path traffic may carry span IDs, so the
// journals never misattribute barrier or heartbeat ops to a steal.
func TestSpanIDsAreUntaggedForNonStealTraffic(t *testing.T) {
	dir := t.TempDir()
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs: 2, HeapBytes: 1 << 20, FlightDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if _, err := c.FetchAdd64(0, addr, 1); err != nil {
				return err
			}
			if _, err := c.Load64(0, addr); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DumpFlight("untagged check"); err != nil {
		t.Fatal(err)
	}
	r, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spans) != 0 {
		t.Fatalf("plain Ctx traffic produced %d spans, want 0", len(r.Spans))
	}
	for _, e := range r.Timeline {
		if e.Span != 0 {
			t.Fatalf("untagged op carried span %#x: %v", e.Span, e)
		}
	}
}
