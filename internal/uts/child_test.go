package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
	"testing"
)

// refChild is the UTS child digest written out against crypto/sha1 alone.
func refChild(state [NodeStateSize]byte, i uint32) [NodeStateSize]byte {
	var buf [NodeStateSize + 4]byte
	copy(buf[:], state[:])
	binary.BigEndian.PutUint32(buf[NodeStateSize:], i)
	return sha1.Sum(buf[:])
}

// Both digest kernels agree with crypto/sha1: on a long chain of children
// (each digest the next one's state, so every input is a fresh digest), on
// the index edges Child's int-to-uint32 conversion reaches, and through
// Child itself, whichever kernel this CPU selects. Deterministic: CI
// repeats it 5 times under -race only beside the body's other tests.
func TestChildMatchesSHA1(t *testing.T) {
	kernels := []struct {
		name string
		f    func(*[NodeStateSize]byte, uint32) [NodeStateSize]byte
	}{
		{"generic", childGeneric},
		{"shani", func(s *[NodeStateSize]byte, i uint32) (out [NodeStateSize]byte) {
			childBlockSHANI(&out, s, i)
			return out
		}},
	}
	chain := 100_000
	if testing.Short() {
		chain = 10_000
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			if k.name == "shani" && !hasSHANI {
				t.Skip("CPU lacks the SHA extensions, or the kernel is not built here")
			}
			s := Root(T1).State
			for n := 0; n < chain; n++ {
				i := uint32(n) * 2654435761 // spread the index over all 32 bits
				got, want := k.f(&s, i), refChild(s, i)
				if got != want {
					t.Fatalf("link %d (index %#x): %x, want %x", n, i, got, want)
				}
				s = got
			}
			for _, i := range []uint32{0, 1, math.MaxInt32, math.MaxUint32} {
				for _, st := range [][NodeStateSize]byte{{}, Root(Tiny).State, s} {
					if got, want := k.f(&st, i), refChild(st, i); got != want {
						t.Errorf("index %#x state %x: %x, want %x", i, st, got, want)
					}
				}
			}
		})
	}
	n := Node{State: Root(T1).State, Depth: 3}
	for _, i := range []int{0, 1, math.MaxInt32, math.MaxUint32, -1} {
		c := Child(n, i)
		if want := refChild(n.State, uint32(i)); c.State != want || c.Depth != 4 {
			t.Errorf("Child(n, %d) = %x depth %d, want %x depth 4", i, c.State, c.Depth, want)
		}
	}
}

func FuzzChild(f *testing.F) {
	t1, bin := Root(T1), Root(TinyBin)
	f.Add(t1.State[:], uint32(0))
	f.Add(make([]byte, NodeStateSize), uint32(math.MaxUint32))
	f.Add(bin.State[:], uint32(math.MaxInt32))
	f.Fuzz(func(t *testing.T, state []byte, i uint32) {
		var n Node
		copy(n.State[:], state)
		want := refChild(n.State, i)
		if got := Child(n, int(i)); got.State != want {
			t.Fatalf("Child(%x, %d) = %x, want %x", n.State, i, got.State, want)
		}
		if got := childGeneric(&n.State, i); got != want {
			t.Fatalf("childGeneric(%x, %d) = %x, want %x", n.State, i, got, want)
		}
	})
}

// BenchmarkChild times one child digest per kernel on chained states, the
// way a traversal feeds them: each result is the next input.
func BenchmarkChild(b *testing.B) {
	b.Run("generic", func(b *testing.B) {
		s := Root(T1).State
		for i := 0; i < b.N; i++ {
			s = childGeneric(&s, uint32(i))
		}
		sinkState = s
	})
	b.Run("shani", func(b *testing.B) {
		if !hasSHANI {
			b.Skip("CPU lacks the SHA extensions, or the kernel is not built here")
		}
		s := Root(T1).State
		for i := 0; i < b.N; i++ {
			childBlockSHANI(&s, &s, uint32(i))
		}
		sinkState = s
	})
}

var sinkState [NodeStateSize]byte
