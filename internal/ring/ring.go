// Package ring provides index arithmetic for fixed-capacity circular
// buffers and wrap-aware block copies.
//
// Both task-queue implementations in this repository (the SDC baseline in
// internal/sdc and the SWS queue in internal/core) store their task slots
// in a circular buffer held in a symmetric heap. A steal claims a
// contiguous run of logical slots that may wrap around the physical end of
// the buffer, so every block transfer has to be expressed as at most two
// physical spans. Ring centralizes that arithmetic so the two queues (and
// their tests) cannot drift apart on wrap handling.
//
// Positions in a Ring are logical, monotonically increasing uint64 values;
// the physical slot for a logical position p is p % capacity. Using
// unbounded logical positions keeps interval arithmetic (lengths, overlap
// checks) free of modular corner cases; only the final memory access maps
// through the modulus.
package ring

import "fmt"

// Ring describes a circular buffer of Cap fixed-size slots.
// The zero value is not usable; construct with New.
type Ring struct {
	cap uint64
}

// New returns a Ring with the given slot capacity.
// Capacity must be positive.
func New(capacity int) (Ring, error) {
	if capacity <= 0 {
		return Ring{}, fmt.Errorf("ring: capacity must be positive, got %d", capacity)
	}
	return Ring{cap: uint64(capacity)}, nil
}

// MustNew is New for capacities known to be valid at compile time.
// It panics on invalid capacity.
func MustNew(capacity int) Ring {
	r, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the slot capacity.
func (r Ring) Cap() int { return int(r.cap) }

// Slot maps a logical position to its physical slot index in [0, Cap).
func (r Ring) Slot(pos uint64) int { return int(pos % r.cap) }

// Span is a physically contiguous run of slots: Start is a physical slot
// index and Count the number of consecutive slots (which, by construction,
// do not wrap).
type Span struct {
	Start int
	Count int
}

// Spans decomposes the logical interval [pos, pos+n) into at most two
// physically contiguous spans. n must not exceed the ring capacity: a
// logical interval longer than the buffer would alias itself.
func (r Ring) Spans(pos uint64, n int) ([2]Span, int, error) {
	var out [2]Span
	if n < 0 {
		return out, 0, fmt.Errorf("ring: negative span length %d", n)
	}
	if uint64(n) > r.cap {
		return out, 0, fmt.Errorf("ring: span length %d exceeds capacity %d", n, r.cap)
	}
	if n == 0 {
		return out, 0, nil
	}
	start := r.Slot(pos)
	first := int(r.cap) - start
	if first >= n {
		out[0] = Span{Start: start, Count: n}
		return out, 1, nil
	}
	out[0] = Span{Start: start, Count: first}
	out[1] = Span{Start: 0, Count: n - first}
	return out, 2, nil
}

// CopyIn copies n slots of slotSize bytes from src into buf, the ring's
// slot storage, from logical position pos on: one copy per physical span,
// two when the run wraps the buffer's end.
func (r Ring) CopyIn(buf []byte, slotSize int, pos uint64, src []byte, n int) error {
	spans, k, err := r.Spans(pos, n)
	if err != nil {
		return err
	}
	if len(src) < n*slotSize {
		return fmt.Errorf("ring: %d source bytes for %d slots of %d", len(src), n, slotSize)
	}
	for _, s := range spans[:k] {
		src = src[copy(buf[s.Start*slotSize:(s.Start+s.Count)*slotSize], src):]
	}
	return nil
}

// Contains reports whether logical position p lies in [lo, hi), where lo
// and hi are logical positions with lo <= hi and hi-lo <= Cap.
func (r Ring) Contains(lo, hi, p uint64) bool {
	return lo <= p && p < hi
}

// Distance returns hi - lo, the length of the logical interval [lo, hi).
// It panics if hi < lo, which always indicates queue-state corruption.
func Distance(lo, hi uint64) int {
	if hi < lo {
		panic(fmt.Sprintf("ring: inverted interval [%d, %d)", lo, hi))
	}
	return int(hi - lo)
}
