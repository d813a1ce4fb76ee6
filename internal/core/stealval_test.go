package core

import (
	"testing"
	"testing/quick"

	"sws/internal/wsq"
)

func TestFormatString(t *testing.T) {
	if FormatV1.String() != "v1" || FormatV2.String() != "v2-epochs" {
		t.Error("format strings wrong")
	}
	if Format(9).String() == "" {
		t.Error("unknown format string empty")
	}
}

// The paper's Figure 3 example: asteals=2, valid, itasks=150, tail=500.
func TestPackUnpackFig3Example(t *testing.T) {
	v := Stealval{Asteals: 2, Valid: true, ITasks: 150, Tail: 500}
	w, err := FormatV1.Pack(v)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatV1.Unpack(w)
	if got != v {
		t.Errorf("round trip: %+v != %+v", got, v)
	}
	// The asteals field must occupy the top 24 bits.
	if w>>AstealsShift != 2 {
		t.Errorf("asteals not in high bits: %#x", w)
	}
}

func TestPackUnpackV2(t *testing.T) {
	v := Stealval{Asteals: 7, Valid: true, Epoch: 1, ITasks: 150, Tail: 500}
	w, err := FormatV2.Pack(v)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatV2.Unpack(w)
	if got != v {
		t.Errorf("round trip: %+v != %+v", got, v)
	}
}

// A thief's fetch-add of AstealsUnit must increment asteals and leave
// every owner field untouched — the property the whole protocol rests on.
func TestFetchAddOnlyTouchesAsteals(t *testing.T) {
	for _, f := range []Format{FormatV1, FormatV2} {
		v := Stealval{Asteals: 0, Valid: true, ITasks: 150, Tail: 500}
		if f == FormatV2 {
			v.Epoch = 1
		}
		w, err := f.Pack(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 1000; i++ {
			w += AstealsUnit
			got := f.Unpack(w)
			if got.Asteals != uint32(i) {
				t.Fatalf("%v: after %d adds asteals=%d", f, i, got.Asteals)
			}
			if got.ITasks != v.ITasks || got.Tail != v.Tail || got.Valid != v.Valid || got.Epoch != v.Epoch {
				t.Fatalf("%v: owner fields corrupted after %d adds: %+v", f, i, got)
			}
		}
	}
}

// Disabled words must decode as invalid, and stray increments on a
// disabled word must keep it invalid.
func TestDisabled(t *testing.T) {
	for _, f := range []Format{FormatV1, FormatV2} {
		w := f.Disabled()
		if f.Unpack(w).Valid {
			t.Errorf("%v: Disabled() decodes as valid", f)
		}
		for i := 0; i < 100; i++ {
			w += AstealsUnit
			if f.Unpack(w).Valid {
				t.Errorf("%v: disabled word became valid after %d increments", f, i+1)
			}
		}
	}
}

func TestPackRangeErrors(t *testing.T) {
	cases := []struct {
		name string
		f    Format
		v    Stealval
	}{
		{"v1 itasks too big", FormatV1, Stealval{Valid: true, ITasks: MaxITasksV1 + 1}},
		{"v1 tail too big", FormatV1, Stealval{Valid: true, Tail: MaxTailV1 + 1}},
		{"v1 nonzero epoch", FormatV1, Stealval{Valid: true, Epoch: 1}},
		{"v2 itasks too big", FormatV2, Stealval{Valid: true, ITasks: MaxITasksV2 + 1}},
		{"v2 tail too big", FormatV2, Stealval{Valid: true, Tail: MaxTailV2 + 1}},
		{"v2 epoch too big", FormatV2, Stealval{Valid: true, Epoch: MaxEpochs}},
		{"negative itasks", FormatV2, Stealval{Valid: true, ITasks: -1}},
		{"negative tail", FormatV2, Stealval{Valid: true, Tail: -1}},
		{"asteals overflow", FormatV2, Stealval{Valid: true, Asteals: 1 << 24}},
	}
	for _, c := range cases {
		if _, err := c.f.Pack(c.v); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Property: pack/unpack round-trips every in-range value, both formats.
func TestPackUnpackProperty(t *testing.T) {
	fV1 := func(asteals uint32, itasks uint32, tail uint32, valid bool) bool {
		v := Stealval{
			Asteals: asteals & astealsMask,
			Valid:   valid,
			ITasks:  int(itasks) & MaxITasksV1,
			Tail:    int(tail) & MaxTailV1,
		}
		if !valid {
			// V1 encodes invalid by clearing the bit; owner fields survive.
			v.ITasks, v.Tail = int(itasks)&MaxITasksV1, int(tail)&MaxTailV1
		}
		w, err := FormatV1.Pack(v)
		if err != nil {
			return false
		}
		return FormatV1.Unpack(w) == v
	}
	if err := quick.Check(fV1, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error("v1:", err)
	}
	fV2 := func(asteals uint32, itasks uint32, tail uint32, epoch uint8) bool {
		v := Stealval{
			Asteals: asteals & astealsMask,
			Valid:   true,
			Epoch:   int(epoch) % MaxEpochs,
			ITasks:  int(itasks) & MaxITasksV2,
			Tail:    int(tail) & MaxTailV2,
		}
		w, err := FormatV2.Pack(v)
		if err != nil {
			return false
		}
		return FormatV2.Unpack(w) == v
	}
	if err := quick.Check(fV2, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error("v2:", err)
	}
}

// Edge cases around the asteals field's 24-bit ceiling. Because asteals
// occupies the TOP bits of the word, saturating it and adding one more
// unit carries out of bit 63 and vanishes — the owner fields below are
// arithmetically unreachable, no matter how many thieves pile on.
func TestAstealsSaturationEdges(t *testing.T) {
	cases := []struct {
		name string
		f    Format
		v    Stealval
	}{
		{"v1 busy queue", FormatV1, Stealval{Valid: true, ITasks: 150, Tail: 500}},
		{"v1 tail at max", FormatV1, Stealval{Valid: true, ITasks: 1, Tail: MaxTailV1}},
		{"v2 epoch 1", FormatV2, Stealval{Valid: true, Epoch: 1, ITasks: 150, Tail: 500}},
		{"v2 tail at max", FormatV2, Stealval{Valid: true, Epoch: 0, ITasks: 1, Tail: MaxTailV2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := c.f.Pack(c.v)
			if err != nil {
				t.Fatal(err)
			}
			// Saturate: 2^24-1 thief increments.
			sat := w + (uint64(astealsMask) << AstealsShift)
			got := c.f.Unpack(sat)
			if got.Asteals != astealsMask {
				t.Fatalf("saturated asteals = %d, want %d", got.Asteals, uint32(astealsMask))
			}
			if got.ITasks != c.v.ITasks || got.Tail != c.v.Tail || got.Valid != c.v.Valid || got.Epoch != c.v.Epoch {
				t.Fatalf("saturation leaked into owner fields: %+v", got)
			}
			// One more increment carries out of bit 63: asteals wraps to 0,
			// the low 40 bits are bit-for-bit untouched.
			over := sat + AstealsUnit
			if over&(AstealsUnit-1) != w&(AstealsUnit-1) {
				t.Fatalf("asteals overflow corrupted low bits: %#x vs %#x", over, w)
			}
			got = c.f.Unpack(over)
			if got.Asteals != 0 {
				t.Fatalf("overflowed asteals = %d, want 0", got.Asteals)
			}
			if got.ITasks != c.v.ITasks || got.Tail != c.v.Tail || got.Valid != c.v.Valid || got.Epoch != c.v.Epoch {
				t.Fatalf("overflow corrupted owner fields: %+v", got)
			}
		})
	}
}

// A valid stealval advertising zero shared tasks (nshared == 0) is the
// state every queue publishes between Release cycles. It must round-trip,
// and the steal plan for it must be empty at every attempt index — a
// thief that fetch-adds such a word finds plan exhausted immediately.
func TestZeroSharedValidWord(t *testing.T) {
	for _, f := range []Format{FormatV1, FormatV2} {
		for _, tail := range []int{0, 1, 4095} {
			v := Stealval{Valid: true, ITasks: 0, Tail: tail}
			w, err := f.Pack(v)
			if err != nil {
				t.Fatalf("%v tail=%d: %v", f, tail, err)
			}
			got := f.Unpack(w)
			if got != v {
				t.Fatalf("%v tail=%d: round trip %+v != %+v", f, tail, got, v)
			}
			if !got.Valid {
				t.Fatalf("%v: zero-itasks word decoded invalid", f)
			}
		}
	}
	if wsq.PlanLen(0) != 0 {
		t.Fatalf("PlanLen(0) = %d, want 0 (no stealable blocks in an empty set)", wsq.PlanLen(0))
	}
	for i := 0; i < 5; i++ {
		if k := wsq.StealHalf(0, i); k != 0 {
			t.Fatalf("StealHalf(0, %d) = %d, want 0", i, k)
		}
	}
}

// Tail-index wrap: the packed tail is a ring index that wraps at the
// field boundary. Words whose tail sits at the last representable index,
// and raw words with every tail bit set, must mask cleanly and never
// bleed into the adjacent itasks bits.
func TestPackedTailWrapEdges(t *testing.T) {
	type tc struct {
		name string
		f    Format
		tail int
	}
	cases := []tc{
		{"v1 max tail", FormatV1, MaxTailV1},
		{"v1 max-1", FormatV1, MaxTailV1 - 1},
		{"v2 max tail", FormatV2, MaxTailV2},
		{"v2 max-1", FormatV2, MaxTailV2 - 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := Stealval{Valid: true, ITasks: 3, Tail: c.tail}
			w, err := c.f.Pack(v)
			if err != nil {
				t.Fatal(err)
			}
			got := c.f.Unpack(w)
			if got.Tail != c.tail {
				t.Fatalf("tail %d decoded as %d", c.tail, got.Tail)
			}
			if got.ITasks != 3 {
				t.Fatalf("max tail bled into itasks: %+v", got)
			}
			// One past the max must be rejected by Pack, not silently wrapped.
			v.Tail = c.tail + (c.f.maxTail() - c.tail) + 1
			if _, err := c.f.Pack(v); err == nil {
				t.Fatalf("Pack accepted tail %d beyond field max %d", v.Tail, c.f.maxTail())
			}
		})
	}
	// Raw words with all tail bits set decode to exactly maxTail — the
	// mask cannot produce an out-of-ring index.
	for _, f := range []Format{FormatV1, FormatV2} {
		raw := ^uint64(0)
		v := f.Unpack(raw)
		if v.Tail != f.maxTail() {
			t.Fatalf("%v: all-ones word decodes tail %d, want %d", f, v.Tail, f.maxTail())
		}
		if v.ITasks > f.maxITasks() {
			t.Fatalf("%v: all-ones word decodes itasks %d beyond max", f, v.ITasks)
		}
	}
}

// Property: fields are independent — packing two values that differ in one
// field yields words that differ only in that field's bit range.
func TestFieldIndependenceProperty(t *testing.T) {
	f := func(itasks uint32, tailA, tailB uint32) bool {
		a := Stealval{Valid: true, Epoch: 1, ITasks: int(itasks) & MaxITasksV2, Tail: int(tailA) & MaxTailV2}
		b := a
		b.Tail = int(tailB) & MaxTailV2
		wa, err1 := FormatV2.Pack(a)
		wb, err2 := FormatV2.Pack(b)
		if err1 != nil || err2 != nil {
			return false
		}
		diff := wa ^ wb
		return diff&^uint64(MaxTailV2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkStealvalPack measures the packed-metadata codec itself — the
// owner-side cost the paper trades for fewer communications (§4: "adds
// minimal processing to queue metadata upkeep").
func BenchmarkStealvalPack(b *testing.B) {
	v := Stealval{Asteals: 2, Valid: true, Epoch: 1, ITasks: 150, Tail: 500}
	b.Run("pack-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FormatV2.Pack(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	w, _ := FormatV2.Pack(v)
	b.Run("unpack-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if FormatV2.Unpack(w).ITasks != 150 {
				b.Fatal("bad unpack")
			}
		}
	})
	b.Run("steal-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if wsq.StealHalf(150, 2) != 19 {
				b.Fatal("bad plan")
			}
		}
	})
}
