package shmem

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// everyTransport runs a subtest on all four back-ends: the three
// wall-clock transports and the deterministic simulator.
func everyTransport(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Helper()
	transports(t, func(t *testing.T, kind TransportKind) { f(t, Config{NumPEs: 2, Transport: kind}) })
	t.Run("sim", func(t *testing.T) {
		f(t, Config{NumPEs: 2, Transport: TransportSim, Sim: SimOptions{Seed: 1, MaxVirtualTime: 2 * time.Second}})
	})
}

// A reader that acquires the signal word sees the whole payload. The reader
// takes the bytes as plain memory, so under -race this also checks that the
// signal is the only ordering a put-signal's payload needs.
func TestPutSignalAcquireSeesPayload(t *testing.T) {
	const rounds, size = 200, 200
	everyTransport(t, func(t *testing.T, cfg Config) {
		run(t, cfg, func(c *Ctx) error {
			data, sig, ack := c.MustAlloc(size), c.MustAlloc(WordSize), c.MustAlloc(WordSize)
			own, err := c.OwnBytes(data, size)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for k := uint64(1); k <= rounds; k++ {
				if c.Rank() == 0 {
					if err := c.PutSignal(1, data, bytes.Repeat([]byte{byte(k)}, size), sig, k); err != nil {
						return err
					}
					if _, err := c.WaitUntil64(ack, CmpEQ, k, 0); err != nil {
						return err
					}
					continue
				}
				if _, err := c.WaitUntil64(sig, CmpEQ, k, 0); err != nil {
					return err
				}
				if !bytes.Equal(own, bytes.Repeat([]byte{byte(k)}, size)) {
					return fmt.Errorf("round %d: signal visible before its payload: % x...", k, own[:8])
				}
				if err := c.Store64(0, ack, k); err != nil {
					return err
				}
			}
			d := c.Counters().Snapshot()
			if c.Rank() == 0 && (d.Of(OpPutSignal) != rounds || d.BytesPut != rounds*size || d.Blocking() < rounds) {
				return fmt.Errorf("%d put-signals counted %v, %d bytes put", rounds, d, d.BytesPut)
			}
			return c.Barrier()
		})
	})
}

// landed reads what a put-signal to PE 1 left there: the first payload
// word and the signal word.
func landed(c *Ctx, data, sig Addr) (payload, signal uint64, err error) {
	if payload, err = c.Load64(1, data); err != nil {
		return 0, 0, err
	}
	signal, err = c.Load64(1, sig)
	return payload, signal, err
}

// A lost put-signal fails the initiator with the verdict's typed error —
// dropped, or cut off by a partition (healed again before the check) — and
// writes neither the payload nor the signal.
func TestPutSignalLostLeavesTargetUntouched(t *testing.T) {
	part := &Partition{}
	for _, tc := range []struct {
		name        string
		fault       FaultInjector
		want        error
		split, heal func()
	}{
		{"drop", &DropFaults{Fraction: 1, Ops: []Op{OpPutSignal}}, ErrDropped, func() {}, func() {}},
		{"partition", part, ErrPartitioned, func() { part.Split([]int{1}) }, part.Heal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			everyTransport(t, func(t *testing.T, cfg Config) {
				cfg.Fault = tc.fault
				run(t, cfg, func(c *Ctx) error {
					data, sig := c.MustAlloc(64), c.MustAlloc(WordSize)
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						tc.split()
						err := c.PutSignal(1, data, bytes.Repeat([]byte{0xAB}, 64), sig, 7)
						tc.heal()
						if !errors.Is(err, tc.want) {
							return fmt.Errorf("lost put-signal returned %v, want %v", err, tc.want)
						}
						if p, s, err := landed(c, data, sig); err != nil || p != 0 || s != 0 {
							return fmt.Errorf("lost put-signal left payload %#x, signal %d, %v", p, s, err)
						}
					}
					return c.Barrier()
				})
			})
		})
	}
}

// A put-signal ends in an atomic, so a Duplicate verdict must not apply it
// twice. The direct back-end is the one that redelivers blocking ops; there
// the source can alias the target heap, shifted by a word, which makes a
// second application visible: once turns the words 1 2 3 into 1 1 2, twice
// into 1 1 1.
func TestPutSignalDuplicateAppliesOnce(t *testing.T) {
	if OpPutSignal.redeliverable() || opIdempotent(OpPutSignal) {
		t.Error("put-signal is marked safe to redeliver or retry")
	}
	kinds := []TransportKind{TransportLocal}
	if ShmSupported() {
		kinds = append(kinds, TransportShm)
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			window := make(chan []byte, 1)
			run(t, Config{NumPEs: 2, Transport: kind, Fault: dupAll{}}, func(c *Ctx) error {
				data, sig := c.MustAlloc(3*WordSize), c.MustAlloc(WordSize)
				if c.Rank() == 1 {
					own, err := c.OwnBytes(data, 2*WordSize)
					if err != nil {
						return err
					}
					for i := uint64(0); i < 3; i++ {
						if err := c.Store64(1, data+Addr(i*WordSize), i+1); err != nil {
							return err
						}
					}
					window <- own
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := c.PutSignal(1, data+WordSize, <-window, sig, 1); err != nil {
						return err
					}
					if v, err := c.Load64(1, data+2*WordSize); err != nil || v != 2 {
						return fmt.Errorf("third word is %d, %v; want 2 (3: not applied, 1: applied twice)", v, err)
					}
				}
				return c.Barrier()
			})
		})
	}
}

// Both addresses are validated before either is written: a bad signal
// address leaves the payload area untouched and a bad payload range leaves
// the signal word untouched.
func TestPutSignalValidatesBeforeWriting(t *testing.T) {
	everyTransport(t, func(t *testing.T, cfg Config) {
		cfg.HeapBytes = 4096
		run(t, cfg, func(c *Ctx) error {
			data, sig := c.MustAlloc(64), c.MustAlloc(WordSize)
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				src := bytes.Repeat([]byte{0xAB}, 64)
				for _, bad := range []struct {
					name      string
					data, sig Addr
				}{
					{"unaligned signal", data, sig + 4},
					{"signal out of range", data, 4096},
					{"payload out of range", 4096 - 32, sig},
				} {
					if err := c.PutSignal(1, bad.data, src, bad.sig, 7); err == nil {
						return fmt.Errorf("%s: accepted", bad.name)
					}
					if p, s, err := landed(c, data, sig); err != nil || p != 0 || s != 0 {
						return fmt.Errorf("%s: rejected put-signal left payload %#x, signal %d, %v", bad.name, p, s, err)
					}
				}
				if p, err := c.Load64(1, 4096-32); err != nil || p != 0 {
					return fmt.Errorf("rejected put-signal wrote the in-range part of its payload: %#x, %v", p, err)
				}
			}
			return c.Barrier()
		})
	})
}

// The op crosses the tcp wire as a put whose two header words are its
// signal and signal address.
func TestPutSignalWireRoundTrip(t *testing.T) {
	sent := opReq{op: OpPutSignal, addr: 0x140, buf: []byte("descriptor bytes"), v1: 0xfeedface + 1, v2: 0x98, span: 5}
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	var hdr [reqHdrSize]byte
	r := sent
	payload, into, tbl := encodeOp(&r)
	if into != nil || tbl != nil {
		t.Fatalf("a put-signal expects no response payload and stages no table: %v %v", into, tbl)
	}
	if err := writeRequest(w, hdr[:], &r, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	var staging []byte
	got, payload, err := readRequest(bufio.NewReader(&wire), hdr[:], &staging)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeOp(&got, payload, 1<<20, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got.op != sent.op || got.addr != sent.addr || got.v1 != sent.v1 || got.v2 != sent.v2 ||
		got.span != sent.span || !bytes.Equal(got.buf, sent.buf) {
		t.Errorf("wire round trip: sent %+v, got %+v", sent, got)
	}
}
