// Package trace records per-PE runtime events into fixed-size rings for
// post-mortem analysis of scheduling behaviour: who stole from whom and
// when, when queues released or acquired work, how long termination
// detection took. There is one ring type, Flight, and every PE of a world
// has exactly one: the world's own small always-on ring (the flight
// recorder: one record per steal attempt, the victim side of its ops,
// queue depths, epoch flips, liveness and membership
// transitions), or — for a run that attached a Set through the pool
// configuration — that Set's ring, which takes the same events plus the
// per-task and per-scheduling-step kinds. flight.go is the JSONL journal a
// ring is dumped to; internal/inspect renders journals and Sets alike.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind classifies an event.
type Kind uint8

const (
	// TaskExec: a task ran. A = task handle, B = duration ns.
	TaskExec Kind = iota
	// TaskSpawn: a task was enqueued locally. A = task handle.
	TaskSpawn
	// Steal: a steal attempt ended at the thief, the attempt's one record.
	// Span is its span ID, which its sub-operations carry to the victim
	// (VictimOp); A and B pack a StealRecord.
	Steal
	// Release: tasks moved local -> shared. B = count.
	Release
	// Acquire: tasks moved shared -> local. B = count.
	Acquire
	// RemoteSpawn: a task was sent to a peer's inbox. A = destination.
	RemoteSpawn
	// InboxDrain: tasks drained from the inbox. B = count.
	InboxDrain
	// Terminated: global termination observed.
	Terminated
	// CommOp: a blocking one-sided communication outside any steal
	// completed (trace rings only). A = op code (shmem.Op), B = duration ns.
	CommOp
	// EpochFlip: the queue started a new completion epoch. A = epoch
	// number, B = tasks in the new shared block.
	EpochFlip
	// TermWave: a termination-detection summation pass finished.
	// A = cumulative probe count, B = 1 if it declared termination.
	TermWave
	// VictimOp: a span-tagged one-sided operation was applied at its
	// target (the victim side of a steal sub-op). A = op code (shmem.Op),
	// B = the initiating rank.
	VictimOp
	// QueueDepth: a queue-depth sample. A = local (private) depth,
	// B = shared (stealable) depth.
	QueueDepth
	// PeerState: the failure detector moved a peer to a new state.
	// A = the peer's rank, B = the new state (shmem.PeerState numeric).
	PeerState
	// JobStart: a job epoch opened on this PE. A = job sequence number.
	JobStart
	// JobEnd: a job epoch closed on this PE. A = job sequence number,
	// B = tasks this PE executed during the job.
	JobEnd
	// MemberJoin: a rank entered the membership (elastic worlds). A =
	// the joining rank, B = the membership epoch after the transition.
	// Recorded by the rank itself when it completes its join, and by
	// every other PE when it folds the new member into its victim sets.
	MemberJoin
	// MemberDrain: a rank left the membership voluntarily. A = the
	// draining rank, B = the membership epoch after the transition.
	// Recorded by the rank itself once its queue is flushed (loss-free),
	// and by every other PE when it drops the rank from its victim sets.
	MemberDrain
	numKinds
)

var kindNames = [numKinds]string{
	TaskExec:    "exec",
	TaskSpawn:   "spawn",
	Steal:       "steal",
	Release:     "release",
	Acquire:     "acquire",
	RemoteSpawn: "remote-spawn",
	InboxDrain:  "inbox-drain",
	Terminated:  "terminated",
	CommOp:      "comm-op",
	EpochFlip:   "epoch-flip",
	TermWave:    "term-wave",
	VictimOp:    "victim-op",
	QueueDepth:  "queue-depth",
	PeerState:   "peer-state",
	JobStart:    "job-start",
	JobEnd:      "job-end",
	MemberJoin:  "member-join",
	MemberDrain: "member-drain",
}

// KindByName resolves a kind name (as produced by Kind.String) back to
// its code; ok is false for unknown names. Dump readers use it to parse
// JSONL flight journals.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// StealRecord is what a Steal event holds: the victim, what came of the
// attempt, the ops that made its claim and its copy, and how long the two
// phases took on the thief's clock: the claim, from the start to the
// claim's answer (SWS's fetch-add, SDC's lock through its unlock), and the
// rest, the copy and the completion store.
type StealRecord struct {
	Victim int
	// Outcome is tasks obtained if > 0, 0 = empty, -1 = disabled,
	// -2 = error.
	Outcome int64
	// ClaimOp and CopyOp are op codes (shmem.Op), -1 for none: the attempt
	// ended before its claim was answered, or it copied nothing, or the
	// claim brought the tasks back (a fused claim and copy).
	ClaimOp, CopyOp int
	Claim, Rest     time.Duration
}

// Pack lays r out in an event's two words. A is the victim in its low 24
// bits, ClaimOp+1 and CopyOp+1 in the next two bytes, and Outcome, signed,
// in the top 24; B is Claim and Rest in ns, 32 bits each, saturating at
// 4.29 s, so the 48-byte slot does not grow.
func (r StealRecord) Pack() (a, b int64) {
	ns := func(d time.Duration) uint64 { return uint64(min(max(d, 0), 1<<32-1)) }
	a = r.Outcome<<40 | int64(r.CopyOp+1)&0xff<<32 | int64(r.ClaimOp+1)&0xff<<24 | int64(r.Victim)&(1<<24-1)
	return a, int64(ns(r.Claim)<<32 | ns(r.Rest))
}

// UnpackSteal reads the StealRecord a Steal event's words hold.
func UnpackSteal(a, b int64) StealRecord {
	return StealRecord{
		Victim: int(a & (1<<24 - 1)), Outcome: a >> 40,
		ClaimOp: int(a>>24&0xff) - 1, CopyOp: int(a>>32&0xff) - 1,
		Claim: time.Duration(uint64(b) >> 32), Rest: time.Duration(uint32(b)),
	}
}

// Event is one recorded occurrence. Span, when non-zero, ties the event
// to one cross-PE causal span (a steal attempt); all events carrying the
// same span merge into one tree regardless of which PE recorded them.
type Event struct {
	At   time.Duration // since the Set's epoch
	PE   int
	Kind Kind
	A, B int64
	Span uint64
}

func (e Event) String() string {
	s := fmt.Sprintf("%12v pe=%d %-14s a=%d b=%d", e.At, e.PE, e.Kind, e.A, e.B)
	if e.Kind == Steal {
		s = fmt.Sprintf("%12v pe=%d %-14s %+v", e.At, e.PE, e.Kind, UnpackSteal(e.A, e.B))
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" span=%#x", e.Span)
	}
	return s
}

// Flight is one PE's event ring: a bounded, overwrite-oldest journal,
// cheap enough to leave running in production and read only after the
// run or when something goes wrong.
//
// A ring has many writers — transport handler goroutines record
// victim-side events into the target PE's ring while the PE's own workers
// record initiator-side events — and may be read while they write (a
// failure dump does not stop the world). A position is claimed with one
// atomic increment; the slot it maps to is then held, for the length of
// six stores, by a try-lock nobody waits on: a writer that laps one
// still inside the slot, or meets a reader there, drops its own event, and
// a reader skips a slot it finds held or not yet written.
type Flight struct {
	pe    int
	epoch time.Time // monotonic base for Event.At
	wall  int64     // epoch as wall-clock UnixNano, for cross-process alignment
	slots []slot    // length is a power of two, so slot index is a mask
	mask  uint64    // len(slots) - 1
	n     atomic.Uint64
	owner any // what must outlive slots' memory (NewRings)
}

// slot is one event in 48 bytes: its PE is the ring's, filled in when a
// reader copies the slot out, and its kind shares the try-lock's word.
type slot struct {
	held atomic.Bool
	kind Kind
	pos  uint64 // 1 + the position of the event held (0: never written)
	at   time.Duration
	a, b int64
	span uint64
}

// ringLen is a capacity rounded up to a power of two, so the hot-path slot
// index is a mask, not a division.
func ringLen(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// RingBytes is the memory NewRings lays one ring of capacity events over.
func RingBytes(capacity int) int { return ringLen(capacity) * int(unsafe.Sizeof(slot{})) }

// NewRings lays n rings of at least capacity events each over mem, one
// RingBytes(capacity) after another, for PEs pe, pe+1, ..., on one epoch
// so their timestamps compare. mem must be zeroed, 8-byte aligned and
// n*RingBytes(capacity) long. Every ring holds owner, so memory released
// once owner is unreachable (a world's mapping) outlives each ring over it.
func NewRings(mem []byte, owner any, pe, n, capacity int) []*Flight {
	size := RingBytes(capacity)
	if len(mem) < n*size || uintptr(unsafe.Pointer(unsafe.SliceData(mem)))%8 != 0 {
		panic(fmt.Sprintf("trace: %d rings of %d bytes over %d bytes at %p", n, size, len(mem), unsafe.SliceData(mem)))
	}
	epoch := time.Now()
	rings := make([]*Flight, n)
	for i := range rings {
		slots := unsafe.Slice((*slot)(unsafe.Pointer(&mem[i*size])), ringLen(capacity))
		rings[i] = &Flight{pe: pe + i, epoch: epoch, wall: epoch.UnixNano(),
			slots: slots, mask: uint64(len(slots) - 1), owner: owner}
	}
	return rings
}

// goRings is NewRings over Go memory.
func goRings(pe, n, capacity int) []*Flight {
	words := make([]uint64, n*RingBytes(capacity)/8)
	return NewRings(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8), nil, pe, n, capacity)
}

// NewFlight returns one standalone ring outside any set. External
// journal writers use it — e.g. the sws-dist supervisor, which records
// the kill actions it performed on behalf of a process whose in-memory
// ring died with it (a negative pe marks a non-rank observer). A
// capacity < 1 returns nil, on which every method is a no-op.
func NewFlight(pe, capacity int) *Flight {
	if capacity < 1 {
		return nil
	}
	return goRings(pe, 1, capacity)[0]
}

// Record claims the next slot and stores the event, stamped now. Nil-safe
// and safe for concurrent use.
func (f *Flight) Record(k Kind, a, b int64, span uint64) {
	if f != nil {
		f.RecordAt(time.Since(f.epoch), k, a, b, span)
	}
}

// RecordTime records with an absolute timestamp the caller already
// holds (e.g. the end of an op-latency measurement), avoiding a second
// clock read on the hot path. A zero t reads the clock like Record.
func (f *Flight) RecordTime(t time.Time, k Kind, a, b int64, span uint64) {
	switch {
	case f == nil:
	case t.IsZero():
		f.RecordAt(time.Since(f.epoch), k, a, b, span)
	default:
		f.RecordAt(t.Sub(f.epoch), k, a, b, span)
	}
}

// RecordAt records with an explicit timestamp relative to the ring's
// epoch (for replaying externally timed events and synthetic journals).
func (f *Flight) RecordAt(at time.Duration, k Kind, a, b int64, span uint64) {
	if f == nil {
		return
	}
	pos := f.n.Add(1)
	if s := &f.slots[(pos-1)&f.mask]; s.held.CompareAndSwap(false, true) {
		s.kind, s.pos, s.at, s.a, s.b, s.span = k, pos, at, a, b, span
		s.held.Store(false)
	}
}

// window returns the positions [start, end) of the retained events.
func (f *Flight) window() (start, end uint64) {
	if f == nil {
		return 0, 0
	}
	end = f.n.Load()
	if size := uint64(len(f.slots)); end > size {
		start = end - size
	}
	return start, end
}

// Len reports the number of retained events.
func (f *Flight) Len() int {
	start, end := f.window()
	return int(end - start)
}

// Dropped reports how many events were overwritten.
func (f *Flight) Dropped() uint64 {
	start, _ := f.window()
	return start
}

// Events returns the retained events, oldest first (but those a writer
// is still storing, or dropped).
func (f *Flight) Events() []Event {
	evs, _ := f.retained()
	return evs
}

// retained is Events plus the number of positions claimed when it looked.
func (f *Flight) retained() ([]Event, uint64) {
	start, end := f.window()
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		if s := &f.slots[i&f.mask]; s.held.CompareAndSwap(false, true) {
			if s.pos == i+1 {
				out = append(out, Event{At: s.at, PE: f.pe, Kind: s.kind, A: s.a, B: s.b, Span: s.span})
			}
			s.held.Store(false)
		}
	}
	return out, end
}

// Set holds one ring per PE with a shared epoch, so event timestamps are
// comparable across PEs.
type Set struct {
	rings []*Flight
}

// NewSet creates per-PE rings of the given capacity (rounded up to a
// power of two).
func NewSet(pes, capacity int) (*Set, error) {
	if pes < 1 || capacity < 1 {
		return nil, fmt.Errorf("trace: need pes >= 1 and capacity >= 1 (got %d, %d)", pes, capacity)
	}
	return &Set{rings: goRings(0, pes, capacity)}, nil
}

// PE returns the ring for a rank (nil-safe for a nil Set and nil for a
// rank outside it, so call sites can record unconditionally).
func (s *Set) PE(rank int) *Flight {
	if s == nil || rank < 0 || rank >= len(s.rings) {
		return nil
	}
	return s.rings[rank]
}

// NumPEs returns the number of rings in the set.
func (s *Set) NumPEs() int {
	if s == nil {
		return 0
	}
	return len(s.rings)
}

// Dumps snapshots every ring as the journal it would be dumped to, the
// form internal/inspect builds its report from.
func (s *Set) Dumps(reason string) []FlightDump {
	out := make([]FlightDump, s.NumPEs())
	for i := range out {
		out[i] = s.rings[i].Snapshot(len(out), reason)
	}
	return out
}

// Merged returns every PE's events merged into timestamp order. Ties on
// the timestamp break by PE (and the per-PE order is the recording
// order), so the merged timeline is deterministic.
func (s *Set) Merged() []Event { return MergeFlightDumps(s.Dumps("")) }

// CountByKind tallies retained events per kind across all PEs.
func (s *Set) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for i := 0; i < s.NumPEs(); i++ {
		for _, e := range s.rings[i].Events() {
			out[e.Kind]++
		}
	}
	return out
}
