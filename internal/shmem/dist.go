package shmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// listenJoined is newTCPTransport for a multi-process world: a listener
// and service loop for the local rank only, plus the rendezvous that fills
// in every peer's address.
func (t *tcpTransport) listenJoined(at *Endpoint) error {
	ln, err := net.Listen("tcp", net.JoinHostPort(at.Bind, "0"))
	if err != nil {
		return fmt.Errorf("listen for PE %d on %s: %w", at.Rank, at.Bind, err)
	}
	t.listeners[at.Rank] = ln
	self := ln.Addr().String()
	t.wg.Add(1)
	go t.serve(at.Rank, ln)

	addrs, err := rendezvous(len(t.addrs), at, self)
	if err != nil {
		return err
	}
	copy(t.addrs, addrs)
	if t.addrs[at.Rank] != self {
		return fmt.Errorf("rendezvous table lists %q for rank %d, want %q", t.addrs[at.Rank], at.Rank, self)
	}
	return nil
}

// Rendezvous wire format (all little-endian):
//   peer -> coordinator:  rank uint32, alen uint16, addr bytes
//   coordinator -> peer:  n uint32, then n x (alen uint16, addr bytes)

// rendezvous exchanges PE service addresses through rank 0.
func rendezvous(numPEs int, at *Endpoint, self string) ([]string, error) {
	if numPEs == 1 {
		return []string{self}, nil
	}
	if at.Rank == 0 {
		return rendezvousServe(numPEs, at.Coordinator, self)
	}
	return rendezvousDial(numPEs, at, self)
}

func rendezvousServe(numPEs int, coordinator, self string) ([]string, error) {
	ln, err := net.Listen("tcp", coordinator)
	if err != nil {
		return nil, fmt.Errorf("shmem: rendezvous listen on %s: %w", coordinator, err)
	}
	defer ln.Close()
	type reg struct {
		conn net.Conn
		rank int
	}
	addrs := make([]string, numPEs)
	addrs[0] = self
	regs := make([]reg, 0, numPEs-1)
	deadline := time.Now().Add(joinTimeout)
	for len(regs) < numPEs-1 {
		if dl, ok := ln.(*net.TCPListener); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				return nil, err
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			for _, r := range regs {
				r.conn.Close()
			}
			return nil, fmt.Errorf("shmem: rendezvous accept (have %d/%d peers): %w",
				len(regs), numPEs-1, err)
		}
		rank, addr, err := readRegistration(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("shmem: rendezvous registration: %w", err)
		}
		if rank <= 0 || rank >= numPEs || addrs[rank] != "" {
			conn.Close()
			return nil, fmt.Errorf("shmem: rendezvous got invalid or duplicate rank %d", rank)
		}
		addrs[rank] = addr
		regs = append(regs, reg{conn, rank})
	}
	for _, r := range regs {
		err := writeMsg(r.conn, len(addrs), addrs...)
		r.conn.Close()
		if err != nil {
			return nil, fmt.Errorf("shmem: rendezvous reply to rank %d: %w", r.rank, err)
		}
	}
	return addrs, nil
}

func rendezvousDial(numPEs int, at *Endpoint, self string) ([]string, error) {
	var conn net.Conn
	var err error
	deadline := time.Now().Add(joinTimeout)
	for {
		conn, err = net.DialTimeout("tcp", at.Coordinator, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shmem: rendezvous dial %s: %w", at.Coordinator, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(joinTimeout)); err != nil {
		return nil, err
	}
	if err := writeMsg(conn, at.Rank, self); err != nil {
		return nil, fmt.Errorf("shmem: rendezvous register: %w", err)
	}
	addrs, err := readTable(conn, numPEs)
	if err != nil {
		return nil, fmt.Errorf("shmem: rendezvous table: %w", err)
	}
	return addrs, nil
}

// writeMsg sends one rendezvous message: a uint32 head (the registering
// rank, or the table's entry count) and length-prefixed addresses. A
// bufio.Writer's first error is sticky, so Flush reports it.
func writeMsg(conn net.Conn, head int, addrs ...string) error {
	w := bufio.NewWriter(conn)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(head))
	w.Write(b[:])
	for _, a := range addrs {
		binary.LittleEndian.PutUint16(b[:2], uint16(len(a)))
		w.Write(b[:2])
		w.WriteString(a)
	}
	return w.Flush()
}

func readHead(r io.Reader) (int, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return int(binary.LittleEndian.Uint32(b[:])), err
}

func readAddr(r io.Reader) (string, error) {
	var alen [2]byte
	if _, err := io.ReadFull(r, alen[:]); err != nil {
		return "", err
	}
	addr := make([]byte, binary.LittleEndian.Uint16(alen[:]))
	_, err := io.ReadFull(r, addr)
	return string(addr), err
}

func readRegistration(conn net.Conn) (int, string, error) {
	r := bufio.NewReader(conn)
	rank, err := readHead(r)
	if err != nil {
		return 0, "", err
	}
	addr, err := readAddr(r)
	return rank, addr, err
}

func readTable(conn net.Conn, want int) ([]string, error) {
	r := bufio.NewReader(conn)
	n, err := readHead(r)
	if err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("table has %d entries, want %d", n, want)
	}
	addrs := make([]string, n)
	for i := range addrs {
		if addrs[i], err = readAddr(r); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}
