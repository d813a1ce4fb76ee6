package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlightDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSet(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	s.PE(0).RecordAt(5, QueueDepth, 1, 0, 0)
	s.PE(0).RecordAt(9, Steal, 1, 3, 42)
	s.PE(1).RecordAt(7, VictimOp, 2, 0, 42)
	for r := 0; r < s.NumPEs(); r++ {
		if _, err := s.PE(r).DumpFile(dir, s.NumPEs(), "unit test"); err != nil {
			t.Fatal(err)
		}
	}
	d0, err := ReadFlightDumpFile(filepath.Join(dir, FlightDumpName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if d0.Rank != 0 || d0.NumPEs != 2 || d0.Reason != "unit test" {
		t.Fatalf("header = %+v", d0)
	}
	if len(d0.Events) != 2 || d0.Events[1].Span != 42 || d0.Events[1].B != 3 {
		t.Fatalf("events = %+v", d0.Events)
	}
	d1, err := ReadFlightDumpFile(filepath.Join(dir, FlightDumpName(1)))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFlightDumps([]FlightDump{d0, d1})
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	if merged[0].Kind != QueueDepth || merged[1].Kind != VictimOp || merged[2].Kind != Steal {
		t.Fatalf("merge order wrong: %v", merged)
	}
}

func TestFlightDumpSkipsTornLines(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(3, 8)
	f.RecordAt(1, CommOp, 1, 2, 3)
	if err := f.WriteTo(&buf, 4, "torn"); err != nil {
		t.Fatal(err)
	}
	// A torn slot shows up as an unknown kind name; the reader must count
	// it as dropped rather than fail the whole journal.
	mangled := strings.Replace(buf.String(), `"kind":"comm-op"`, `"kind":"garbage"`, 1)
	d, err := ReadFlightDump(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 0 || d.Dropped != 1 {
		t.Fatalf("torn line: events=%d dropped=%d, want 0/1", len(d.Events), d.Dropped)
	}
}

func TestMergeFlightDumpsAlignsWallClocks(t *testing.T) {
	// Rank 1's process started 100ns after rank 0's: an event at local
	// offset 10 in rank 1 is globally at 110.
	d0 := FlightDump{Rank: 0, NumPEs: 2, WallNS: 1000, Events: []Event{
		{At: 50, PE: 0, Kind: CommOp, A: 1},
	}}
	d1 := FlightDump{Rank: 1, NumPEs: 2, WallNS: 1100, Events: []Event{
		{At: 10, PE: 1, Kind: CommOp, A: 2},
	}}
	merged := MergeFlightDumps([]FlightDump{d0, d1})
	if merged[0].A != 1 || merged[0].At != 50 {
		t.Fatalf("first event %+v, want rank 0's at 50", merged[0])
	}
	if merged[1].A != 2 || merged[1].At != 110 {
		t.Fatalf("second event %+v, want rank 1's shifted to 110", merged[1])
	}
}

func TestFlightWriteToNilErrors(t *testing.T) {
	var f *Flight
	if err := f.WriteTo(os.Stderr, 1, "x"); err == nil {
		t.Fatal("nil WriteTo should error")
	}
}
