package shmem

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stalledPeer points rank's address at a stand-in listener that accepts
// connections and never reads them: the socket stays open and no service
// loop runs behind it, so no connection ever breaks.
func stalledPeer(t *testing.T, w *World, rank int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	w.transport.(*tcpTransport).addrs[rank] = ln.Addr().String()
}

// A pair is one connection and one service goroutine at its target, for
// blocking ops and injections alike: after all-to-all traffic of both
// kinds the world runs no goroutine beyond its PEs, listeners and one
// service loop per pair.
func TestTCPOneServiceGoroutinePerPair(t *testing.T) {
	const n = 4
	before := runtime.NumGoroutine()
	w, err := NewWorld(Config{NumPEs: n, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Ctx) error {
		addr, err := c.Alloc(WordSize)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for pe := 0; pe < n; pe++ {
			if pe == c.Rank() {
				continue
			}
			if _, err := c.FetchAdd64(pe, addr, 1); err != nil {
				return err
			}
			if err := c.Add64NBI(pe, addr, 1); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if got, bound := runtime.NumGoroutine()-before, n+n+n*(n-1); got > bound {
				return fmt.Errorf("%d-PE tcp world runs %d goroutines, want at most %d", n, got, bound)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A round trip watches its target's liveness while it waits for the
// reply: against a target that accepts and never answers, a FetchAdd64
// ends with ErrPeerDead soon after the death declaration instead of
// waiting out OpTimeout.
func TestTCPBlockingOpUnwindsOnDeadTarget(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, w, 1)
	err = w.Run(func(c *Ctx) error {
		if c.Rank() == 1 {
			return nil
		}
		start := time.Now()
		time.AfterFunc(20*time.Millisecond, func() { w.Live().MarkDead(1) })
		_, err := c.FetchAdd64(1, reservedHeapBytes, 1)
		if !errors.Is(err, ErrPeerDead) {
			return fmt.Errorf("FetchAdd64 to a dead, silent target: got %v, want ErrPeerDead", err)
		}
		if took := time.Since(start); took > time.Second {
			return fmt.Errorf("FetchAdd64 to a dead, silent target took %v, want under 1s", took)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One Quiet fences a silent-then-dead target and a live one at once: it
// fails with ErrPeerDead, yet every injection to the live target has
// landed when it returns — behind a long run of stores, so the target is
// still applying them when the fences go out — and the next Quiet balances.
func TestTCPQuietFencesLiveTargetPastDeadOne(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 3, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, w, 1)
	const k = 32
	err = w.Run(func(c *Ctx) error {
		if c.Rank() != 0 {
			return nil
		}
		addr := Addr(reservedHeapBytes)
		if err := c.Store64NBI(1, addr, 1); err != nil {
			return err
		}
		for i := range 1 << 13 {
			if err := c.Store64NBI(2, addr+LineSize+Addr(i*WordSize), 1); err != nil {
				return err
			}
		}
		for i := 0; i < k; i++ {
			if err := c.Add64NBI(2, addr, 1); err != nil {
				return err
			}
		}
		time.AfterFunc(20*time.Millisecond, func() { w.Live().MarkDead(1) })
		if err := c.Quiet(); !errors.Is(err, ErrPeerDead) {
			return fmt.Errorf("Quiet over a silent-then-dead target and a live one: got %v, want ErrPeerDead", err)
		}
		if got := atomic.LoadUint64(&w.pes[2].words[addr/WordSize]); got != k {
			return fmt.Errorf("live target holds %d after Quiet, want all %d injections", got, k)
		}
		return c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// relayPeer points rank's address at a relay to its real listener and
// returns a func that cuts every relayed connection, as the death of the
// process behind them would.
func relayPeer(t *testing.T, w *World, rank int) (cut func()) {
	t.Helper()
	tt := w.transport.(*tcpTransport)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func(target string) {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			go io.Copy(up, down)
			go io.Copy(down, up)
		}
	}(tt.addrs[rank])
	tt.addrs[rank] = ln.Addr().String()
	cut = func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	t.Cleanup(cut)
	return cut
}

// A target that applied its injections and then died is written off by
// the next Quiet, not failed on: a thief's completion store is its last op
// to a victim, so no reply follows it, and the victim's later death must
// not fail the thief's next Quiet.
func TestTCPQuietWritesOffTargetGoneAfterLanding(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	cut := relayPeer(t, w, 1)
	addr := Addr(reservedHeapBytes)
	err = w.Run(func(c *Ctx) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Store64NBI(1, addr, 7); err != nil {
			return err
		}
		// The store went out as it was issued: no reply fences it.
		for atomic.LoadUint64(&w.pes[1].words[addr/WordSize]) != 7 {
			time.Sleep(time.Millisecond)
		}
		cut()
		w.Live().MarkDead(1)
		if err := c.Quiet(); err != nil {
			return fmt.Errorf("Quiet after the target applied every injection and died: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A round trip that times out on a live target takes the pair's
// unfenced injections down with its connection; the next Quiet reports
// their loss instead of fencing a fresh connection, and the one after it
// balances.
func TestTCPQuietReportsInjectionsLostWithConnection(t *testing.T) {
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportTCP, OpTimeout: 50 * time.Millisecond, DeadAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	stalledPeer(t, w, 1)
	err = w.Run(func(c *Ctx) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Store64NBI(1, reservedHeapBytes, 1); err != nil {
			return err
		}
		if _, err := c.FetchAdd64(1, reservedHeapBytes, 1); !errors.Is(err, ErrOpTimeout) {
			return fmt.Errorf("FetchAdd64 to a live, silent target: got %v, want ErrOpTimeout", err)
		}
		if err := c.Quiet(); !errors.Is(err, ErrOpTimeout) {
			return fmt.Errorf("Quiet after a connection broke with an injection unfenced: got %v, want ErrOpTimeout", err)
		}
		return c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
}
