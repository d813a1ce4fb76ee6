package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// flightHeader is the first JSONL record of a dump: which rank's ring
// this is, the world size, why it was dumped, and the ring's wall-clock
// epoch so dumps from different processes align on absolute time.
type flightHeader struct {
	Rank    int    `json:"rank"`
	NumPEs  int    `json:"npes"`
	Reason  string `json:"reason"`
	WallNS  int64  `json:"wall_ns"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// flightLine is one event record of a dump. Kind is the name string so
// journals stay readable and stable across kind-enum growth.
type flightLine struct {
	AtNS int64  `json:"at_ns"`
	PE   int    `json:"pe"`
	Kind string `json:"kind"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	Span uint64 `json:"span,omitempty"`
}

// Snapshot copies the ring into the parsed form of its journal.
func (f *Flight) Snapshot(numPEs int, reason string) FlightDump {
	evs, claimed := f.retained()
	return FlightDump{
		Rank: f.pe, NumPEs: numPEs, Reason: reason, WallNS: f.wall,
		Dropped: claimed - uint64(len(evs)), Events: evs,
	}
}

// WriteTo dumps one ring as JSONL: a header record, then one event per
// line, oldest first.
func (f *Flight) WriteTo(w io.Writer, numPEs int, reason string) error {
	if f == nil {
		return fmt.Errorf("trace: WriteTo on nil Flight")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	d := f.Snapshot(numPEs, reason)
	if err := enc.Encode(flightHeader{
		Rank: d.Rank, NumPEs: d.NumPEs, Reason: d.Reason,
		WallNS: d.WallNS, Events: len(d.Events), Dropped: d.Dropped,
	}); err != nil {
		return err
	}
	for _, e := range d.Events {
		if err := enc.Encode(flightLine{
			AtNS: int64(e.At), PE: e.PE, Kind: e.Kind.String(),
			A: e.A, B: e.B, Span: e.Span,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FlightDumpName is the file name of rank's journal inside a dump
// directory; sws-inspect globs for this shape.
func FlightDumpName(rank int) string { return fmt.Sprintf("flight-rank%d.jsonl", rank) }

// DumpFile writes one ring's journal to dir/flight-rank<pe>.jsonl.
func (f *Flight) DumpFile(dir string, numPEs int, reason string) (string, error) {
	if f == nil {
		return "", fmt.Errorf("trace: DumpFile on nil Flight")
	}
	path := filepath.Join(dir, FlightDumpName(f.pe))
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WriteTo(file, numPEs, reason); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// FlightDump is one parsed journal: a file read back, or a live ring's
// Snapshot.
type FlightDump struct {
	Rank    int
	NumPEs  int
	Reason  string
	WallNS  int64
	Dropped uint64
	Events  []Event
}

// ReadFlightDump parses a JSONL journal produced by WriteTo. Lines that
// fail to parse (torn ring slots) are skipped and counted.
func ReadFlightDump(r io.Reader) (FlightDump, error) {
	var d FlightDump
	dec := json.NewDecoder(r)
	var hdr flightHeader
	if err := dec.Decode(&hdr); err != nil {
		return d, fmt.Errorf("trace: reading flight header: %w", err)
	}
	d.Rank, d.NumPEs, d.Reason = hdr.Rank, hdr.NumPEs, hdr.Reason
	d.WallNS, d.Dropped = hdr.WallNS, hdr.Dropped
	for {
		var ln flightLine
		if err := dec.Decode(&ln); err != nil {
			if err == io.EOF {
				break
			}
			// A torn slot corrupts at most its own line; note it and stop
			// (the decoder cannot resync mid-stream).
			d.Dropped++
			break
		}
		k, ok := KindByName(ln.Kind)
		if !ok {
			d.Dropped++
			continue
		}
		d.Events = append(d.Events, Event{
			At: time.Duration(ln.AtNS), PE: ln.PE, Kind: k,
			A: ln.A, B: ln.B, Span: ln.Span,
		})
	}
	return d, nil
}

// ReadFlightDumpFile parses one journal file.
func ReadFlightDumpFile(path string) (FlightDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return FlightDump{}, err
	}
	defer f.Close()
	d, err := ReadFlightDump(f)
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// MergeFlightDumps aligns journals from (possibly) different processes
// on absolute wall time and returns one timeline, oldest first. The
// returned events' At values are relative to the earliest journal's
// epoch; ties break by PE for determinism.
func MergeFlightDumps(dumps []FlightDump) []Event {
	if len(dumps) == 0 {
		return nil
	}
	base := dumps[0].WallNS
	for _, d := range dumps[1:] {
		if d.WallNS < base {
			base = d.WallNS
		}
	}
	var all []Event
	for _, d := range dumps {
		off := time.Duration(d.WallNS - base)
		for _, e := range d.Events {
			e.At += off
			all = append(all, e)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].PE < all[j].PE
	})
	return all
}
