package core

import (
	"testing"

	"sws/internal/wsq"
)

// FuzzStealvalRoundTrip feeds arbitrary words through Unpack->Pack and
// checks the codec's internal consistency: any word that decodes as valid
// must re-encode to a word that decodes identically (idempotence), and
// thief increments must never corrupt owner fields.
func FuzzStealvalRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1) << 63)
	f.Add(AstealsUnit)
	f.Add(^uint64(0))
	w0, _ := FormatV2.Pack(Stealval{Valid: true, Epoch: 1, ITasks: 150, Tail: 500, Asteals: 2})
	f.Add(w0)
	w1, _ := FormatV1.Pack(Stealval{Valid: true, ITasks: 150, Tail: 500, Asteals: 2})
	f.Add(w1)
	f.Fuzz(func(t *testing.T, w uint64) {
		for _, format := range []Format{FormatV1, FormatV2} {
			v := format.Unpack(w)
			if v.ITasks < 0 || v.Tail < 0 {
				t.Fatalf("%v: negative fields from %#x: %+v", format, w, v)
			}
			if v.ITasks > format.maxITasks() || v.Tail > format.maxTail() {
				t.Fatalf("%v: out-of-range fields from %#x: %+v", format, w, v)
			}
			if format == FormatV1 {
				v.Epoch = 0 // V1 carries no epoch
			}
			if !v.Valid {
				continue // disabled words do not round-trip their fields
			}
			repacked, err := format.Pack(v)
			if err != nil {
				t.Fatalf("%v: cannot repack own decode of %#x (%+v): %v", format, w, v, err)
			}
			v2 := format.Unpack(repacked)
			if v2 != v {
				t.Fatalf("%v: unstable decode: %+v != %+v", format, v2, v)
			}
			// A thief's increment touches only asteals.
			bumped := format.Unpack(repacked + AstealsUnit)
			if bumped.ITasks != v.ITasks || bumped.Tail != v.Tail {
				t.Fatalf("%v: increment corrupted owner fields: %+v -> %+v", format, v, bumped)
			}
		}
	})
}

// FuzzStealPlan checks the plan arithmetic for arbitrary block sizes and
// attempt indexes: blocks stay within the remaining work and offsets
// telescope.
func FuzzStealPlan(f *testing.F) {
	f.Add(150, 2)
	f.Add(0, 0)
	f.Add(1, 5)
	f.Add(1<<19-1, 30)
	f.Fuzz(func(t *testing.T, n, i int) {
		if n < 0 || n > 1<<19 || i < 0 || i > 1<<20 {
			t.Skip()
		}
		k := wsq.StealHalf(n, i)
		off := wsq.StealOffset(n, i)
		if k < 0 || off < 0 || off > n {
			t.Fatalf("(%d, %d): k=%d off=%d", n, i, k, off)
		}
		if off+k > n {
			t.Fatalf("(%d, %d): block [%d, %d) exceeds n", n, i, off, off+k)
		}
		if k > 0 && wsq.StealOffset(n, i+1) != off+k {
			t.Fatalf("(%d, %d): offsets do not telescope", n, i)
		}
		if (k > 0) != (i < wsq.PlanLen(n)) {
			t.Fatalf("(%d, %d): k=%d but PlanLen=%d", n, i, k, wsq.PlanLen(n))
		}
	})
}

// TestPlanLenBoundsEveryBlock: the completion arrays hold wsq.MaxPlanLen
// slots per epoch, one per attempt, so the plan of the largest block any
// stealval format can advertise must fit them — which is why a queue
// needs no cap on its block size beyond the itasks field.
func TestPlanLenBoundsEveryBlock(t *testing.T) {
	for _, f := range []Format{FormatV1, FormatV2} {
		if got := wsq.PlanLen(f.maxITasks()); got > wsq.MaxPlanLen {
			t.Errorf("%v: PlanLen(%d) = %d exceeds MaxPlanLen %d", f, f.maxITasks(), got, wsq.MaxPlanLen)
		}
	}
	if got := wsq.PlanLen(MaxITasksV2); got != 20 {
		t.Errorf("PlanLen(MaxITasksV2) = %d, want 20", got)
	}
}
