package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(0, 8); err == nil {
		t.Error("pes=0 accepted")
	}
	if _, err := NewSet(2, 0); err == nil {
		t.Error("capacity=0 accepted")
	}
}

// TestRing is the one ring's table: what it retains before and after it
// wraps, how a capacity rounds, and that every nil form — no set, a rank
// outside the set, a disabled standalone ring — records nothing and does
// not panic.
func TestRing(t *testing.T) {
	set, err := NewSet(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var noSet *Set
	for _, tc := range []struct {
		name                string
		ring                *Flight
		records             int
		wantLen, wantFirstA int
		wantDropped         uint64
	}{
		{"partly filled", NewFlight(0, 8), 2, 2, 0, 0},
		{"exactly full", NewFlight(0, 4), 4, 4, 0, 0},
		{"wrapped: the oldest go first", NewFlight(0, 4), 10, 4, 6, 6},
		{"a set's ring wraps alike", set.PE(1), 10, 4, 6, 6},
		{"capacity rounds up to a power of two", NewFlight(0, 5), 10, 8, 2, 2},
		{"capacity 1", NewFlight(0, 1), 3, 1, 2, 2},
		{"capacity 0 disables the ring", NewFlight(0, 0), 3, 0, 0, 0},
		{"negative capacity too", NewFlight(0, -1), 3, 0, 0, 0},
		{"nil set", noSet.PE(0), 3, 0, 0, 0},
		{"rank outside the set", set.PE(9), 3, 0, 0, 0},
	} {
		for i := 0; i < tc.records; i++ {
			switch i % 3 { // all three entry points claim slots alike
			case 0:
				tc.ring.Record(Steal, int64(i), 5, 7)
			case 1:
				tc.ring.RecordTime(time.Time{}, Steal, int64(i), 5, 7)
			default:
				tc.ring.RecordTime(time.Now(), Steal, int64(i), 5, 7)
			}
		}
		evs := tc.ring.Events()
		if tc.ring.Len() != tc.wantLen || len(evs) != tc.wantLen || tc.ring.Dropped() != tc.wantDropped {
			t.Errorf("%s: Len %d, %d events, Dropped %d; want %d, %d, %d", tc.name,
				tc.ring.Len(), len(evs), tc.ring.Dropped(), tc.wantLen, tc.wantLen, tc.wantDropped)
			continue
		}
		for i, e := range evs {
			if e.A != int64(tc.wantFirstA+i) || e.Kind != Steal || e.B != 5 || e.Span != 7 {
				t.Errorf("%s: event %d = %+v, want A=%d (oldest retained first)", tc.name, i, e, tc.wantFirstA+i)
			}
			if i > 0 && e.At < evs[i-1].At {
				t.Errorf("%s: timestamps not monotonic at event %d", tc.name, i)
			}
		}
	}
	if evs := set.PE(1).Events(); evs[0].PE != 1 {
		t.Errorf("a set's ring stamps PE %d, want its rank 1", evs[0].PE)
	}
}

// TestFlightConcurrentWriters: the slot claim serves many writers — a PE's
// workers and the peers that stamp their steals into its ring — without
// losing a claim (run under -race -count=10 in CI).
func TestFlightConcurrentWriters(t *testing.T) {
	f := NewFlight(0, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.Record(VictimOp, int64(g), int64(i), uint64(g+1))
			}
		}(g)
	}
	wg.Wait()
	if got := f.Dropped() + uint64(f.Len()); got != 8000 {
		t.Fatalf("recorded %d events, want 8000", got)
	}
}

// A slot is 48 bytes: the ring, not the slot, knows its PE, and the kind
// rides in the try-lock's word. A 64-byte slot made every world's rings a
// third larger.
func TestSlotIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 48 {
		t.Errorf("slot is %d bytes, want 48", n)
	}
	if RingBytes(4096) != 192<<10 {
		t.Errorf("a 4,096-event ring is %d bytes, want 192 KB", RingBytes(4096))
	}
}

func TestMergedAndCounts(t *testing.T) {
	s, err := NewSet(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.PE(0).Record(Release, 0, 4, 0)
	s.PE(1).Record(Steal, 0, 2, 0)
	s.PE(0).Record(Acquire, 0, 1, 0)
	merged := s.Merged()
	if len(merged) != 3 {
		t.Fatalf("merged %d events", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Error("merge not time-ordered")
		}
	}
	for _, want := range []string{"release", "steal", "acquire"} {
		found := false
		for _, e := range merged {
			found = found || strings.Contains(e.String(), want)
		}
		if !found {
			t.Errorf("no merged event renders as %q: %v", want, merged)
		}
	}
	counts := s.CountByKind()
	if counts[Release] != 1 || counts[Steal] != 1 || counts[Acquire] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestStealRecordPacks: a Steal event's two words carry its record both
// ways, a negative outcome and op "none" included, and a phase longer
// than 32 bits of nanoseconds saturates instead of wrapping.
func TestStealRecordPacks(t *testing.T) {
	for _, r := range []StealRecord{
		{Victim: 3, Outcome: 75, ClaimOp: 2, CopyOp: 11, Claim: 1500, Rest: 2300},
		{Victim: 1<<24 - 1, Outcome: -2, ClaimOp: -1, CopyOp: -1},
		{Victim: 0, Outcome: -1, ClaimOp: 10, CopyOp: -1, Claim: 7, Rest: 0},
		{Victim: 255, Outcome: 1<<23 - 1, ClaimOp: 4, CopyOp: 1, Claim: 1<<32 - 1, Rest: 1},
	} {
		if got := UnpackSteal(r.Pack()); got != r {
			t.Errorf("%+v came back as %+v", r, got)
		}
	}
	long := StealRecord{Claim: 10 * time.Second, Rest: -1}
	if got := UnpackSteal(long.Pack()); got.Claim != 1<<32-1 || got.Rest != 0 {
		t.Errorf("durations out of range came back as %v and %v, want %v and 0", got.Claim, got.Rest, time.Duration(1<<32-1))
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind empty")
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(CommOp, 1, 2, 3)
	}
}

func BenchmarkFlightRecordAt(b *testing.B) {
	f := NewFlight(0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.RecordAt(time.Duration(i), CommOp, 1, 2, 3)
	}
}
