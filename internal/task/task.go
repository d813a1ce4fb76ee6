// Package task defines the portable task descriptor and its fixed-slot
// binary encoding.
//
// Following the Scioto task-pool model the paper builds on, a task is a
// portable descriptor: a handle naming the registered function to run plus
// an opaque payload with the task's inputs. Descriptors must be copyable
// by one-sided Get operations with no cooperation from the owner, so they
// are encoded into fixed-size slots of a circular buffer in the symmetric
// heap; the slot size (paper: 24–192 bytes) is a queue parameter.
package task

import (
	"encoding/binary"
	"fmt"
)

// Handle identifies a registered task function. Handles are assigned by
// registration order, which must be identical on every PE (SPMD style),
// making descriptors portable across the whole world.
type Handle uint32

// Desc is a portable task descriptor.
type Desc struct {
	Handle  Handle
	Payload []byte
}

// headerSize is the encoded descriptor header: handle (4) + payload length (4).
const headerSize = 8

// Codec encodes descriptors into fixed-size slots.
type Codec struct {
	payloadCap int
}

// NewCodec returns a codec for slots that can carry payloads up to
// payloadCap bytes. The resulting slot size is payloadCap+8, rounded up to
// a multiple of 8 so slots stay word-aligned in the symmetric heap.
func NewCodec(payloadCap int) (Codec, error) {
	if payloadCap < 0 {
		return Codec{}, fmt.Errorf("task: negative payload capacity %d", payloadCap)
	}
	return Codec{payloadCap: payloadCap}, nil
}

// MustNewCodec is NewCodec for parameters known valid at compile time.
func MustNewCodec(payloadCap int) Codec {
	c, err := NewCodec(payloadCap)
	if err != nil {
		panic(err)
	}
	return c
}

// PayloadCap returns the maximum payload size this codec can encode.
func (c Codec) PayloadCap() int { return c.payloadCap }

// SlotSize returns the fixed slot size in bytes (word-aligned).
func (c Codec) SlotSize() int {
	return (headerSize + c.payloadCap + 7) &^ 7
}

// Encode writes d into dst, which must be at least SlotSize bytes.
func (c Codec) Encode(dst []byte, d Desc) error {
	if len(d.Payload) > c.payloadCap {
		return fmt.Errorf("task: payload %d bytes exceeds slot capacity %d", len(d.Payload), c.payloadCap)
	}
	if len(dst) < c.SlotSize() {
		return fmt.Errorf("task: destination %d bytes, need %d", len(dst), c.SlotSize())
	}
	binary.LittleEndian.PutUint32(dst[0:4], uint32(d.Handle))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(len(d.Payload)))
	copy(dst[headerSize:], d.Payload)
	return nil
}

// Decode reads a descriptor from src, which must be at least SlotSize
// bytes. The returned payload is a copy: descriptors outlive their slots
// (the slot may be reclaimed and overwritten while the task runs).
func (c Codec) Decode(src []byte) (Desc, error) { return c.DecodeTo(src, nil) }

// DecodeTo is Decode with the payload copied into buf, which must hold
// PayloadCap bytes, instead of a fresh allocation (nil buf allocates): for
// a consumer that is done with one descriptor before it decodes the next.
func (c Codec) DecodeTo(src, buf []byte) (Desc, error) {
	if len(src) < c.SlotSize() {
		return Desc{}, fmt.Errorf("task: source %d bytes, need %d", len(src), c.SlotSize())
	}
	h := Handle(binary.LittleEndian.Uint32(src[0:4]))
	n := int(binary.LittleEndian.Uint32(src[4:8]))
	if n > c.payloadCap {
		return Desc{}, fmt.Errorf("task: corrupt slot: payload length %d exceeds capacity %d", n, c.payloadCap)
	}
	if buf == nil {
		buf = make([]byte, n)
	} else if n > len(buf) {
		return Desc{}, fmt.Errorf("task: payload buffer %d bytes, need %d", len(buf), n)
	}
	copy(buf, src[headerSize:headerSize+n])
	return Desc{Handle: h, Payload: buf[:n]}, nil
}

// View is Decode without the copy: the returned payload aliases src, for a
// consumer that is done with the descriptor before the slot can change.
func (c Codec) View(src []byte) (Desc, error) {
	if len(src) < c.SlotSize() {
		return Desc{}, fmt.Errorf("task: source %d bytes, need %d", len(src), c.SlotSize())
	}
	n := int(binary.LittleEndian.Uint32(src[4:8]))
	if n > c.payloadCap {
		return Desc{}, fmt.Errorf("task: corrupt slot: payload length %d exceeds capacity %d", n, c.payloadCap)
	}
	return Desc{
		Handle:  Handle(binary.LittleEndian.Uint32(src[0:4])),
		Payload: src[headerSize : headerSize+n : headerSize+n],
	}, nil
}

// argsWords is the most words Args and ParseArgs return in a caller-stack
// array: both inline, so a result that does not escape the caller costs no
// allocation (the plain task body, ParseArgs then Spawn(..., Args(...)),
// allocates nothing). Longer results go to the heap.
const argsWords = 4

// Args packs small unsigned integer arguments into a payload, a
// convenience for tasks whose state is a handful of counters (both paper
// benchmarks fit this shape).
func Args(vals ...uint64) []byte {
	var small [8 * argsWords]byte
	var buf []byte
	if len(vals) <= argsWords {
		buf = small[: 8*len(vals) : 8*len(vals)]
	} else {
		buf = make([]byte, 8*len(vals))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return buf
}

// ParseArgs unpacks a payload written by Args. It returns an error if the
// payload is not exactly n words long.
func ParseArgs(payload []byte, n int) ([]uint64, error) {
	if len(payload) != 8*n {
		return nil, argsLenError{len(payload), n}
	}
	var small [argsWords]uint64
	var out []uint64
	if n <= argsWords {
		out = small[:n:n]
	} else {
		out = make([]uint64, n)
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return out, nil
}

// argsLenError is ParseArgs's length error, a value rather than a call so
// that ParseArgs stays within the inlining budget.
type argsLenError struct{ got, words int }

func (e argsLenError) Error() string {
	return fmt.Sprintf("task: payload is %d bytes, want %d words (%d bytes)", e.got, e.words, 8*e.words)
}
