package task

import (
	"bytes"
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

func TestArgsRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 1<<63 + 5, 42}
	p := Args(vals...)
	got, err := ParseArgs(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("arg %d = %d, want %d", i, got[i], vals[i])
		}
	}
	if _, err := ParseArgs(p, 3); err == nil {
		t.Error("wrong arity accepted")
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
