package task

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestCodecValidation(t *testing.T) {
	if _, err := NewCodec(-1); err == nil {
		t.Error("negative payload cap accepted")
	}
	c, err := NewCodec(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.SlotSize() != 8 {
		t.Errorf("SlotSize for cap 0 = %d, want 8", c.SlotSize())
	}
}

func TestSlotSizeAligned(t *testing.T) {
	for cap := 0; cap < 100; cap++ {
		c := MustNewCodec(cap)
		if c.SlotSize()%8 != 0 {
			t.Fatalf("SlotSize(%d) = %d not word aligned", cap, c.SlotSize())
		}
		if c.SlotSize() < 8+cap {
			t.Fatalf("SlotSize(%d) = %d too small", cap, c.SlotSize())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := MustNewCodec(24)
	slot := make([]byte, c.SlotSize())
	d := Desc{Handle: 7, Payload: []byte("irregular")}
	if err := c.Encode(slot, d); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(slot)
	if err != nil {
		t.Fatal(err)
	}
	if got.Handle != 7 || !bytes.Equal(got.Payload, d.Payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestDecodeCopiesPayload(t *testing.T) {
	c := MustNewCodec(8)
	slot := make([]byte, c.SlotSize())
	if err := c.Encode(slot, Desc{Handle: 1, Payload: []byte("ABCD")}); err != nil {
		t.Fatal(err)
	}
	d, err := c.Decode(slot)
	if err != nil {
		t.Fatal(err)
	}
	slot[8] = 'Z' // simulate slot reuse after decode
	if d.Payload[0] != 'A' {
		t.Error("decoded payload aliases the slot")
	}
}

// View decodes what Decode decodes, without the copy: the payload is the
// slot's own bytes, capped so an append cannot spill into the next slot.
func TestViewAliasesSlot(t *testing.T) {
	c := MustNewCodec(8)
	slot := make([]byte, c.SlotSize())
	if err := c.Encode(slot, Desc{Handle: 7, Payload: []byte("ABCD")}); err != nil {
		t.Fatal(err)
	}
	d, err := c.View(slot)
	if err != nil || d.Handle != 7 || string(d.Payload) != "ABCD" || cap(d.Payload) != 4 {
		t.Fatalf("View = %+v (cap %d), %v", d, cap(d.Payload), err)
	}
	slot[8] = 'Z'
	if d.Payload[0] != 'Z' {
		t.Error("viewed payload is a copy")
	}
	if _, err := c.View(slot[:4]); err == nil {
		t.Error("short source accepted")
	}
	slot[4] = 200
	if _, err := c.View(slot); err == nil {
		t.Error("corrupt slot accepted")
	}
}

func TestEncodeErrors(t *testing.T) {
	c := MustNewCodec(4)
	if err := c.Encode(make([]byte, c.SlotSize()), Desc{Payload: make([]byte, 5)}); err == nil {
		t.Error("oversized payload accepted")
	}
	if err := c.Encode(make([]byte, 4), Desc{}); err == nil {
		t.Error("short destination accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	c := MustNewCodec(4)
	if _, err := c.Decode(make([]byte, 4)); err == nil {
		t.Error("short source accepted")
	}
	slot := make([]byte, c.SlotSize())
	slot[4] = 200 // declared payload length > capacity
	if _, err := c.Decode(slot); err == nil {
		t.Error("corrupt slot accepted")
	}
}

// TestArgsRoundTrip: Args and ParseArgs round-trip at every word count,
// in the caller's stack array and past it, and a wrong length fails with
// the message callers surface (and serve's tests grep) as is.
func TestArgsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, argsWords, argsWords + 1, 9} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i)*(1<<63+5) + 42
		}
		p := Args(vals...)
		got, err := ParseArgs(p, n)
		if err != nil {
			t.Fatalf("%d words: %v", n, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("%d words: arg %d = %d, want %d", n, i, got[i], vals[i])
			}
		}
		want := fmt.Sprintf("task: payload is %d bytes, want %d words (%d bytes)", 8*n, n+1, 8*n+8)
		if got, err := ParseArgs(p, n+1); got != nil || err == nil || err.Error() != want {
			t.Errorf("%d words parsed as %d: %v, %v; want nil, %q", n, n+1, got, err, want)
		}
	}
	if _, err := ParseArgs(make([]byte, 3), 1); err == nil || err.Error() != "task: payload is 3 bytes, want 1 words (8 bytes)" {
		t.Errorf("3-byte payload: %v", err)
	}
}

// TestArgsOnCallerStack: Args and ParseArgs inline, so up to argsWords
// words a result that does not escape its caller lives in the caller's
// frame and costs no allocation; it is sliced to its own length, so an
// append never writes past it.
func TestArgsOnCallerStack(t *testing.T) {
	in := []uint64{7, 1<<63 + 5, 0, 42}
	for n := 0; n <= argsWords; n++ {
		vals := in[:n]
		var bad int
		allocs := testing.AllocsPerRun(100, func() {
			p := Args(vals...)
			got, err := ParseArgs(p, n)
			if err != nil || len(p) != 8*n || cap(p) != 8*n || cap(got) != n {
				bad++
				return
			}
			for i, v := range got {
				if v != vals[i] {
					bad++
				}
			}
		})
		if allocs != 0 || bad != 0 {
			t.Errorf("%d words: Args -> ParseArgs allocates %.2f objects/op and mismatched %d times, want 0 and 0", n, allocs, bad)
		}
	}
}

func TestCodecProperty(t *testing.T) {
	c := MustNewCodec(64)
	slot := make([]byte, c.SlotSize())
	f := func(h uint32, payload []byte) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		d := Desc{Handle: Handle(h), Payload: payload}
		if err := c.Encode(slot, d); err != nil {
			return false
		}
		got, err := c.Decode(slot)
		return err == nil && got.Handle == d.Handle && bytes.Equal(got.Payload, d.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
