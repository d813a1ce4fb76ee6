// Package core implements SWS — Structured-atomic Work Stealing — the
// primary contribution of the reproduced paper (Cartier, Dinan, Larkins,
// ICPP 2021).
//
// The central idea is that everything a thief needs in order to both
// *discover* and *claim* work — the victim queue's tail index, the number
// of tasks initially shared, a validity signal, and a count of steal
// attempts so far — fits in one 64-bit word, the "stealval", held in the
// victim's symmetric heap. A single remote atomic fetch-add on that word
// (incrementing the attempt counter in the high bits) replaces the
// baseline's lock/read/write/unlock sequence: the fetched value tells the
// thief exactly which block of tasks it now owns under the steal-half
// policy. A steal is then 3 one-sided communications (fetch-add, get,
// non-blocking completion store), only 2 of which block — versus 6 (5
// blocking) for the SDC baseline in internal/sdc.
//
// The package implements both stealval layouts from the paper —
// Figure 3's {asteals, valid, itasks, tail} and Figure 4's epoch-bearing
// variant — plus the completion-epoch machinery (§4.2) that lets the owner
// reset the queue without waiting for in-flight steals, and steal damping
// (§4.3), which probes known-empty victims with a read-only fetch.
package core

import "fmt"

// Format selects a stealval bit layout.
type Format int

const (
	// FormatV1 is Figure 3's layout: asteals:24 | valid:1 | itasks:19 |
	// tail:20. It has no epoch field, so the owner must wait for all
	// in-flight steals before resetting the queue (§4.1 behaviour).
	FormatV1 Format = iota
	// FormatV2 is Figure 4's layout: asteals:24 | epoch:2 | itasks:19 |
	// tail:19. Epoch values >= MaxEpochs mark the queue disabled,
	// subsuming V1's valid bit. This is the default.
	FormatV2
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2-epochs"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// MaxEpochs is the number of concurrently draining completion epochs
// (the paper found two sufficient to avoid acquire-time polling).
const MaxEpochs = 2

const (
	// AstealsShift positions the attempted-steals counter in the top 24
	// bits of the stealval, so a thief's fetch-add of AstealsUnit can
	// never carry into owner-maintained fields.
	AstealsShift = 40
	// AstealsUnit is the fetch-add increment that claims one steal.
	AstealsUnit uint64 = 1 << AstealsShift

	astealsBits = 24
	astealsMask = 1<<astealsBits - 1

	// V1 field geometry (Figure 3).
	v1ValidShift  = 39
	v1ITasksShift = 20
	v1ITasksBits  = 19
	v1TailBits    = 20

	// V2 field geometry (Figure 4).
	v2EpochShift  = 38
	v2EpochBits   = 2
	v2ITasksShift = 19
	v2ITasksBits  = 19
	v2TailBits    = 19
)

// Limits of the owner-maintained fields for each format.
const (
	MaxITasksV1 = 1<<v1ITasksBits - 1
	MaxTailV1   = 1<<v1TailBits - 1
	MaxITasksV2 = 1<<v2ITasksBits - 1
	MaxTailV2   = 1<<v2TailBits - 1
)

// Stealval is the decoded form of the packed queue metadata word.
type Stealval struct {
	// Asteals is the number of steal attempts made against the current
	// block (incremented remotely by thieves).
	Asteals uint32
	// Valid reports whether stealing is currently enabled. For V2 it is
	// derived from the epoch field (epoch < MaxEpochs).
	Valid bool
	// Epoch is the completion epoch the block belongs to (always 0 in V1).
	Epoch int
	// ITasks is the number of tasks initially placed in the shared block.
	ITasks int
	// Tail is the physical slot index of the block's first task.
	Tail int
}

// maxITasks returns the largest encodable ITasks for the format.
func (f Format) maxITasks() int {
	if f == FormatV1 {
		return MaxITasksV1
	}
	return MaxITasksV2
}

// maxTail returns the largest encodable tail index for the format.
func (f Format) maxTail() int {
	if f == FormatV1 {
		return MaxTailV1
	}
	return MaxTailV2
}

// Pack encodes v in format f. It returns an error if a field exceeds the
// format's geometry — always a queue-sizing bug, never a runtime race.
func (f Format) Pack(v Stealval) (uint64, error) {
	if v.Asteals > astealsMask {
		return 0, fmt.Errorf("core: asteals %d exceeds 24 bits", v.Asteals)
	}
	if v.ITasks < 0 || v.ITasks > f.maxITasks() {
		return 0, fmt.Errorf("core: itasks %d out of range for %v", v.ITasks, f)
	}
	if v.Tail < 0 || v.Tail > f.maxTail() {
		return 0, fmt.Errorf("core: tail %d out of range for %v", v.Tail, f)
	}
	w := uint64(v.Asteals) << AstealsShift
	switch f {
	case FormatV1:
		if v.Epoch != 0 {
			return 0, fmt.Errorf("core: format v1 has no epoch field (epoch=%d)", v.Epoch)
		}
		if v.Valid {
			w |= 1 << v1ValidShift
		}
		w |= uint64(v.ITasks) << v1ITasksShift
		w |= uint64(v.Tail)
	case FormatV2:
		epoch := v.Epoch
		if v.Valid {
			if epoch < 0 || epoch >= MaxEpochs {
				return 0, fmt.Errorf("core: valid epoch %d out of range [0, %d)", epoch, MaxEpochs)
			}
		} else {
			// Any epoch value >= MaxEpochs marks the queue disabled.
			epoch = disabledEpoch
		}
		w |= uint64(epoch) << v2EpochShift
		w |= uint64(v.ITasks) << v2ITasksShift
		w |= uint64(v.Tail)
	default:
		return 0, fmt.Errorf("core: unknown format %v", f)
	}
	return w, nil
}

// disabledEpoch is the epoch value published while the queue is disabled.
const disabledEpoch = MaxEpochs

// Unpack decodes a stealval word in format f.
func (f Format) Unpack(w uint64) Stealval {
	v := Stealval{Asteals: uint32(w >> AstealsShift & astealsMask)}
	switch f {
	case FormatV1:
		v.Valid = w>>v1ValidShift&1 == 1
		v.ITasks = int(w >> v1ITasksShift & MaxITasksV1)
		v.Tail = int(w & MaxTailV1)
	case FormatV2:
		v.Epoch = int(w >> v2EpochShift & (1<<v2EpochBits - 1))
		v.Valid = v.Epoch < MaxEpochs
		v.ITasks = int(w >> v2ITasksShift & MaxITasksV2)
		v.Tail = int(w & MaxTailV2)
	}
	return v
}

// Disabled returns the packed word the owner publishes to turn stealing
// off (V1: valid bit clear; V2: out-of-range epoch). Thieves that
// fetch-add a disabled word see Valid=false and abort; their stray
// asteals increments are discarded when the owner publishes a fresh word.
func (f Format) Disabled() uint64 {
	switch f {
	case FormatV1:
		return 0
	default:
		return uint64(disabledEpoch) << v2EpochShift
	}
}
