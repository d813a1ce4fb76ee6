package shmem

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tcpTransport marshals every one-sided operation over loopback TCP to a
// per-PE service goroutine that applies it to the target heap. This is the
// "emulate RMA over RPC" substitution: the service goroutine plays the role
// of the NIC — the target PE's worker code is still never involved.
//
// Each (initiator, target) pair is one connection. The target's service
// goroutine applies its requests in stream order and answers only the
// blocking ones, so a reply proves that every injection written ahead of it
// has landed, and Quiet is a fence (see quiet). An injection is written
// out as it is issued and forgotten, as the paper's completion store is. A
// wait for a reply watches the target's liveness in parkQuantum slices.
//
// The wire path is allocation-free in steady state: each connection owns
// header scratch and reusable payload staging, and response payloads for
// get and getv are read directly into the caller's destination.
type tcpTransport struct {
	hostWaits
	listeners []net.Listener
	addrs     []string
	// conns[from][to] is the pair's connection, made with the transport
	// for every rank this process initiates from and dialed on first use.
	conns [][]*tcpConn

	closed atomic.Bool
	wg     sync.WaitGroup
}

// tcpConn is one (initiator, target) pair's connection. Its lock is held
// for a whole exchange — a round trip, so at most one reply is ever
// outstanding — and by every caller of its methods.
type tcpConn struct {
	t        *tcpTransport
	from, to int

	mu   sync.Mutex
	sock net.Conn          // nil until dialed, and again after a failure
	rw   *bufio.ReadWriter // over c itself: see Read and Write
	whdr [reqHdrSize]byte  // request header scratch
	rhdr [rspHdrSize]byte  // response header scratch
	// slice is where the socket's deadline stands, at most parkQuantum
	// ahead; deadline ends the current exchange, OpTimeout after its first
	// slice ran out (zero until then).
	slice, deadline time.Time
	// unfenced says injections were written since the last reply, and lost
	// that a broken connection to a live target took some with it.
	unfenced, lost bool
}

// spanWireSize is one getv span table entry: addr uint64, n uint32.
const spanWireSize = 12

// Wire format. All integers little-endian.
//
// Connection preamble (initiator -> server):
//   from uint32
// Request:
//   op uint8, addr uint64, val1 uint64, val2 uint64, span uint64,
//   plen uint32, payload
//   (for OpGetV: val1 = span count, val2 = total bytes, payload = span
//   table of (addr uint64, n uint32) entries; span is the reserved
//   causal-span word — zero for untagged traffic)
// Response, to a blocking request only:
//   status uint8, val uint64, plen uint32, payload
//   (status 0 = ok; otherwise payload is an error string)

const (
	reqHdrSize = 37
	rspHdrSize = 13
)

// peerGone reports whether rank can no longer receive traffic: crashed or
// declared dead (or the whole transport is shutting down).
func (t *tcpTransport) peerGone(rank int) bool {
	if t.closed.Load() {
		return true
	}
	return t.w.live.Killed(rank) || !t.w.live.Alive(rank)
}

// Fixed wire-path parameters.
const (
	// dialTimeout bounds connection establishment to a PE's service.
	dialTimeout = 10 * time.Second
	// sockBufBytes sizes the per-connection bufio buffers.
	sockBufBytes = 16 << 10
	// opRetries is how many times a failed round trip is retried (with
	// exponential backoff and jitter) before giving up. Only idempotent
	// operations are retried once a request may have reached the peer;
	// atomics fail immediately rather than risk double application.
	opRetries = 2
)

// newTCPTransport starts the TCP back-end: one loopback listener and
// service loop per PE for an in-process world (at == nil), or the local
// rank's listener plus the address rendezvous for a joined one.
func newTCPTransport(w *World, at *Endpoint) (*tcpTransport, error) {
	n := len(w.pes)
	t := &tcpTransport{
		hostWaits: hostWaits{w},
		conns:     make([][]*tcpConn, n),
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
	}
	for from := range t.conns {
		if at != nil && from != at.Rank {
			continue
		}
		t.conns[from] = make([]*tcpConn, n)
		for to := range t.conns[from] {
			t.conns[from][to] = &tcpConn{t: t, from: from, to: to}
		}
	}
	var err error
	if at != nil {
		err = t.listenJoined(at)
	} else {
		err = t.listenLoopback()
	}
	if err != nil {
		_ = t.close()
		return nil, err
	}
	return t, nil
}

// listenLoopback starts every PE's listener and service loop in this
// process.
func (t *tcpTransport) listenLoopback() error {
	for i := range t.listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen for PE %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.wg.Add(1)
		go t.serve(i, ln)
	}
	return nil
}

func (t *tcpTransport) serve(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !t.closed.Load() {
				t.w.fail(fmt.Errorf("shmem/tcp: accept on PE %d: %w", rank, err))
			}
			return
		}
		t.wg.Add(1)
		go t.handle(rank, conn)
	}
}

// handle services one connection against this PE's heap, in stream order,
// answering blocking requests only. All scratch is per-connection, so the
// service loop allocates nothing in steady state.
func (t *tcpTransport) handle(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, sockBufBytes)
	w := bufio.NewWriterSize(conn, sockBufBytes)
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return // peer vanished before preamble; nothing to clean up
	}
	from := int(binary.LittleEndian.Uint32(pre[:]))
	pe := t.w.pes[rank]
	var (
		reqHdr  [reqHdrSize]byte
		rspHdr  [rspHdrSize]byte
		reqBuf  []byte // request payload staging
		rspBuf  []byte // response payload staging (get/getv/fused gather)
		spanBuf []Span // decoded getv span table
	)
	for {
		req, payload, err := readRequest(r, reqHdr[:], &reqBuf)
		if err == nil {
			req.from, req.to = from, rank
			var rv uint64
			var rp []byte
			aerr := decodeOp(&req, payload, len(pe.bytes), &spanBuf, &rspBuf)
			if aerr == nil {
				// Exactly what the direct back-end's initiator would run (a
				// duplicate verdict arrives as a second request), gathering
				// any response payload into this connection's staging (valid
				// until its next op).
				rv, rp, aerr = t.w.land(pe, &req, false, time.Time{}, &rspBuf)
			}
			switch {
			case !req.op.Blocking():
				if aerr != nil {
					t.w.fail(fmt.Errorf("shmem/tcp: PE %d async op failed: %w", rank, aerr))
				}
				continue
			case aerr != nil:
				err = writeResponse(w, rspHdr[:], 1, 0, []byte(aerr.Error()))
			default:
				err = writeResponse(w, rspHdr[:], 0, rv, rp)
			}
		}
		if err != nil {
			// An abruptly severed connection (RST, not FIN) is survivable in
			// a distributed world — it is the first thing to die when a peer
			// process crashes — and so is one whose initiator or target the
			// detector already wrote off; only an in-process world between
			// two live PEs treats it as a bug.
			if t.w.localRank < 0 && !t.peerGone(from) && !t.peerGone(rank) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				t.w.fail(fmt.Errorf("shmem/tcp: PE %d serving PE %d: %w", rank, from, err))
			}
			return
		}
	}
}

// encodeOp puts r into wire form: the request payload, and the buffer a
// success response should be read into. A get travels as its length (v1);
// a getv as its span count and total (v1, v2) with the span table — staged
// in a pooled buffer the caller recycles — as payload; a put-signal is a
// put whose header words (v1, v2) are already its signal and signal
// address, and a fused op an atomic whose handler its word address names.
func encodeOp(r *opReq) (payload, into []byte, tbl *[]byte) {
	switch r.op {
	case OpPut, OpPutSignal:
		payload = r.buf
	case OpGet:
		r.v1, into = uint64(len(r.buf)), r.buf
	case OpFetchAddGet:
		into = r.buf // empty: the reply lands in its capacity
	case OpGetV:
		tbl = getBuf(len(r.spans) * spanWireSize)
		for i, sp := range r.spans {
			binary.LittleEndian.PutUint64((*tbl)[i*spanWireSize:], uint64(sp.Addr))
			binary.LittleEndian.PutUint32((*tbl)[i*spanWireSize+8:], uint32(sp.N))
		}
		r.v1, r.v2 = uint64(len(r.spans)), uint64(len(r.buf))
		payload, into = *tbl, r.buf
	}
	return payload, into, tbl
}

// decodeOp is encodeOp's inverse at the target: it turns the wire form of
// r back into what the initiator described, staging a get's destination in
// *rsp and a getv's span table in *spans (both reused across the
// connection's ops). Lengths are bounded before anything is sized by them.
func decodeOp(r *opReq, payload []byte, heapBytes int, spans *[]Span, rsp *[]byte) error {
	switch r.op {
	case OpPut, OpPutSignal:
		r.buf = payload
	case OpGet:
		if r.v1 > uint64(heapBytes) {
			return fmt.Errorf("shmem/tcp: get of %d bytes exceeds the %d-byte heap", r.v1, heapBytes)
		}
		r.buf = growScratch(rsp, int(r.v1))
	case OpGetV:
		if r.v1 > uint64(len(payload)) || len(payload) != int(r.v1)*spanWireSize {
			return fmt.Errorf("shmem/tcp: getv span table is %d bytes, want %d spans of %d", len(payload), r.v1, spanWireSize)
		}
		*spans = (*spans)[:0]
		total := uint64(0)
		for off := 0; off < len(payload); off += spanWireSize {
			sp := Span{
				Addr: Addr(binary.LittleEndian.Uint64(payload[off:])),
				N:    int(binary.LittleEndian.Uint32(payload[off+8:])),
			}
			if sp.N > heapBytes {
				return fmt.Errorf("shmem/tcp: getv span of %d bytes exceeds the %d-byte heap", sp.N, heapBytes)
			}
			*spans = append(*spans, sp)
			total += uint64(sp.N)
		}
		if total != r.v2 {
			return fmt.Errorf("shmem/tcp: getv spans cover %d bytes, header claims %d", total, r.v2)
		}
		r.spans, r.buf = *spans, growScratch(rsp, int(total))
	}
	return nil
}

// readRequest reads one request's header fields (op, addr, v1, v2, span)
// using the caller's header scratch; a payload, if present, is staged in
// *payloadBuf (grown as needed) and the returned slice aliases it until
// the next call.
func readRequest(r *bufio.Reader, hdr []byte, payloadBuf *[]byte) (opReq, []byte, error) {
	hdr = hdr[:reqHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return opReq{}, nil, err
	}
	req := opReq{
		op:   Op(hdr[0]),
		addr: Addr(binary.LittleEndian.Uint64(hdr[1:9])),
		v1:   binary.LittleEndian.Uint64(hdr[9:17]),
		v2:   binary.LittleEndian.Uint64(hdr[17:25]),
		span: binary.LittleEndian.Uint64(hdr[25:33]),
	}
	var payload []byte
	if plen := binary.LittleEndian.Uint32(hdr[33:37]); plen > 0 {
		payload = growScratch(payloadBuf, int(plen))
		if _, err := io.ReadFull(r, payload); err != nil {
			return opReq{}, nil, err
		}
	}
	return req, payload, nil
}

// writeRequest buffers one request using the caller's header scratch. It
// does NOT flush: its callers flush once the whole exchange is written.
func writeRequest(w *bufio.Writer, hdr []byte, r *opReq, payload []byte) error {
	hdr = hdr[:reqHdrSize]
	hdr[0] = byte(r.op)
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(r.addr))
	binary.LittleEndian.PutUint64(hdr[9:17], r.v1)
	binary.LittleEndian.PutUint64(hdr[17:25], r.v2)
	binary.LittleEndian.PutUint64(hdr[25:33], r.span)
	binary.LittleEndian.PutUint32(hdr[33:37], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func writeResponse(w *bufio.Writer, hdr []byte, status byte, val uint64, payload []byte) error {
	hdr = hdr[:rspHdrSize]
	hdr[0] = status
	binary.LittleEndian.PutUint64(hdr[1:9], val)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return w.Flush()
}

// readResponse reads one response using the caller's header scratch. When
// the op succeeded and the payload length matches len(into), the payload is
// read directly into into (the caller's destination buffer) — the zero-copy
// fast path for get/getv. Otherwise (error strings, fused payloads whose
// length the caller doesn't know) it allocates.
func readResponse(r *bufio.Reader, hdr []byte, into []byte) (byte, uint64, []byte, error) {
	hdr = hdr[:rspHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	status := hdr[0]
	val := binary.LittleEndian.Uint64(hdr[1:9])
	plen := binary.LittleEndian.Uint32(hdr[9:13])
	var payload []byte
	if plen > 0 {
		if status == 0 && cap(into) >= int(plen) {
			payload = into[:plen]
		} else {
			payload = make([]byte, plen)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return status, val, payload, nil
}

// open readies c for an exchange: a pair without a connection dials,
// unless its target is gone, its preamble waiting in the buffer for the
// exchange's flush.
func (c *tcpConn) open() error {
	c.deadline = time.Time{}
	if c.sock != nil {
		return nil
	}
	if c.t.peerGone(c.to) {
		return fmt.Errorf("shmem/tcp: PE %d: %w", c.to, ErrPeerDead)
	}
	conn, err := net.DialTimeout("tcp", c.t.addrs[c.to], dialTimeout)
	if err != nil {
		return fmt.Errorf("shmem/tcp: dial PE %d: %w", c.to, err)
	}
	if c.rw == nil {
		c.rw = bufio.NewReadWriter(bufio.NewReaderSize(c, sockBufBytes), bufio.NewWriterSize(c, sockBufBytes))
	} else {
		c.rw.Reader.Reset(c)
		c.rw.Writer.Reset(c)
	}
	c.sock = conn
	c.nextSlice(epoch.Add(mono()))
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(c.from))
	_, _ = c.rw.Write(pre[:]) // into an empty buffer: cannot fail
	return nil
}

// Read and Write are the socket as c's buffers see it: a call that runs
// into the socket's deadline checks on the exchange and, if it may, waits
// on for another slice, so a target declared dead, a world failure and
// OpTimeout all end a wait within a parkQuantum.
func (c *tcpConn) Read(p []byte) (int, error) {
	for {
		n, err := c.sock.Read(p)
		if n > 0 || err == nil {
			return n, nil
		}
		if err = c.waitOn(err); err != nil {
			return 0, err
		}
	}
}

func (c *tcpConn) Write(p []byte) (int, error) {
	n := 0
	for {
		k, err := c.sock.Write(p[n:])
		if n += k; err == nil {
			return n, nil
		}
		if err = c.waitOn(err); err != nil {
			return n, err
		}
	}
}

// waitOn returns nil if an I/O call that failed with err may wait on for
// another slice, and otherwise why not.
func (c *tcpConn) waitOn(err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if c.t.peerGone(c.to) {
		return fmt.Errorf("shmem/tcp: PE %d: %w", c.to, ErrPeerDead)
	}
	if ferr := c.t.w.errFor(c.from); ferr != nil {
		return ferr
	}
	now := epoch.Add(mono())
	if dl := c.t.w.cfg.OpTimeout; dl > 0 {
		if c.deadline.IsZero() {
			c.deadline = now.Add(dl)
		} else if now.After(c.deadline) {
			return err
		}
	}
	c.nextSlice(now)
	return nil
}

func (c *tcpConn) nextSlice(now time.Time) {
	c.slice = now.Add(parkQuantum)
	_ = c.sock.SetDeadline(c.slice) // fails only on a closed socket, whose next call fails too
}

// drop closes c after a failure, discarding what it buffered (unfenced
// injections to a live target are marked lost); the next op dials fresh.
func (c *tcpConn) drop() {
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
	c.lost = (c.lost || c.unfenced) && !c.t.peerGone(c.to)
	c.unfenced = false
}

// flush writes out everything c has buffered. It first moves the socket's
// deadline a slice ahead if less than half a slice remains, so only a real
// wait runs into it, and a busy connection moves it about twice a slice
// rather than per op.
func (c *tcpConn) flush() error {
	if now := epoch.Add(mono()); now.Add(parkQuantum / 2).After(c.slice) {
		c.nextSlice(now)
	}
	return c.rw.Flush()
}

// send writes r behind whatever c has buffered and flushes (c open).
func (c *tcpConn) send(r *opReq, payload []byte) error {
	if err := writeRequest(c.rw.Writer, c.whdr[:], r, payload); err != nil {
		return err
	}
	return c.flush()
}

// await reads c's next reply, which proves every injection written ahead
// of it applied.
func (c *tcpConn) await(into []byte) (byte, uint64, []byte, error) {
	status, val, rp, err := readResponse(c.rw.Reader, c.rhdr[:], into)
	if err == nil {
		c.unfenced = false
	}
	return status, val, rp, err
}

// typed wraps a failed exchange with peer in the sentinel its caller acts
// on: ErrPeerDead once the peer is gone, ErrOpTimeout when it did not
// answer — the exchange timed out, or the peer's listener refused the dial
// (a crashed process the failure detector has not declared yet, which a
// thief passes over like any other unresponsive victim).
func (t *tcpTransport) typed(err error, peer int) error {
	var ne net.Error
	switch {
	case errors.Is(err, ErrPeerDead):
		return err
	case t.peerGone(peer):
		return fmt.Errorf("%v: %w", err, ErrPeerDead)
	case errors.As(err, &ne) && ne.Timeout() || errors.Is(err, syscall.ECONNREFUSED):
		return fmt.Errorf("%v: %w", err, ErrOpTimeout)
	}
	return err
}

// opIdempotent reports whether retrying op after its request may have
// reached the target is safe. Atomics (fetch-add, cas, fused) are
// not: a lost *response* still applied the side effect, and a retry would
// apply it twice. Nor is a put-signal: the first copy's signal may already
// have handed the bytes on. Pure reads and overwrites are.
func opIdempotent(op Op) bool {
	switch op {
	case OpPut, OpGet, OpGetV, OpLoad, OpStore:
		return true
	}
	return false
}

// retryBackoff is exponential with jitter — ~1, 2, 4 ms... capped at 50ms,
// each scattered over [base/2, base] so retries from many PEs don't march
// in lockstep.
func retryBackoff(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	base := time.Millisecond << uint(attempt)
	if base > 50*time.Millisecond {
		base = 50 * time.Millisecond
	}
	return base/2 + time.Duration(rand.Int63n(int64(base/2)+1))
}

// blocking performs one round trip on the pair's connection, behind and so
// fencing the pair's earlier injections, retrying transient connection
// errors with bounded exponential backoff. A get's payload is read
// straight into the caller's destination without an intermediate copy.
func (t *tcpTransport) blocking(r opReq) (uint64, []byte, error) {
	v := t.w.verdict(&r)
	payload, into, tbl := encodeOp(&r)
	if tbl != nil {
		defer putBuf(tbl)
	}
	// One round trip: the model's RTT plus bandwidth for the bytes moved
	// in either direction.
	lat := t.w.cfg.Latency
	lat.charge(lat.blockingCost(len(payload)+len(into)) + v.Delay)
	if err := v.failure(); err != nil {
		return 0, nil, opError(r.op, r.from, r.to, err)
	}
	c, err := t.conn(r.from, r.to)
	if err != nil {
		return 0, nil, err
	}
	for attempt := 0; ; attempt++ {
		val, rp, final, err := t.attempt(c, &r, payload, into)
		if err == nil {
			if len(into) > 0 && len(rp) != len(into) {
				return 0, nil, fmt.Errorf("shmem/tcp: %v from PE %d returned %d bytes, want %d", r.op, r.to, len(rp), len(into))
			}
			return val, rp, nil
		}
		if final || attempt >= opRetries || t.peerGone(r.to) {
			return 0, nil, opError(r.op, r.from, r.to, t.typed(err, r.to))
		}
		time.Sleep(retryBackoff(attempt))
	}
}

// attempt is one try of blocking's round trip. final says a retry is
// futile or unsafe: the target rejected the op, its listener refused the
// dial (the process is gone; backing off would only hold the caller, a
// thief say, until the detector rules), the request may have reached it
// and a second copy could apply twice, or the connection that broke
// carried injections no reply had fenced, whose loss a fresh connection
// would hide.
func (t *tcpTransport) attempt(c *tcpConn, r *opReq, payload, into []byte) (uint64, []byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.open(); err != nil {
		return 0, nil, errors.Is(err, syscall.ECONNREFUSED), err
	}
	final := c.unfenced || !opIdempotent(r.op)
	err := c.send(r, payload)
	if err == nil {
		var status byte
		var val uint64
		var rp []byte
		if status, val, rp, err = c.await(into); err == nil {
			if status != 0 {
				// The target executed the request and said no; retrying
				// cannot change the answer.
				return 0, nil, true, errors.New(string(rp))
			}
			return val, rp, false, nil
		}
		err = fmt.Errorf("response: %w", err)
	}
	// The stream may be desynchronized (a straggling reply could be taken
	// for the next op's), so the connection goes.
	c.drop()
	return 0, nil, final, err
}

// conn returns the (from, to) pair's connection.
func (t *tcpTransport) conn(from, to int) (*tcpConn, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("shmem/tcp: target PE %d out of range [0, %d)", to, len(t.addrs))
	}
	return t.conns[from][to], nil
}

// nbi writes one non-blocking request out on the pair's connection and
// returns without a reply; the pair's next reply fences it.
func (t *tcpTransport) nbi(r opReq) error {
	v := t.w.verdict(&r)
	LatencyModel{}.charge(v.Delay)
	if v.dropped() {
		// Silently lost before reaching the wire.
		return nil
	}
	t.w.cfg.Latency.charge(t.w.cfg.Latency.InjectOverhead)
	c, err := t.conn(r.from, r.to)
	if err != nil {
		return err
	}
	payload, _, _ := encodeOp(&r)
	n := 1
	if v.Duplicate && r.op.redeliverable() {
		n = 2 // the retransmission is a second request on the wire
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.open()
	for sent := 0; err == nil && sent < n; sent++ {
		err = writeRequest(c.rw.Writer, c.whdr[:], &r, payload)
	}
	if err == nil {
		c.unfenced = true
		if err = c.flush(); err == nil {
			return nil
		}
	}
	c.drop()
	if t.peerGone(r.to) {
		// The injection drops on the floor, exactly as a NIC drops packets
		// to a vanished endpoint.
		return nil
	}
	return opError(r.op, r.from, r.to, err)
}

// quiet fences every connection this initiator wrote injections to since
// their last reply: one load of the target's heartbeat word each, all
// written before any reply is read, so k targets cost one round trip. The
// fence carries no op of the caller's, so it asks for no fault verdict and
// charges no latency. A target already gone is written off, as a NIC drops
// traffic to a vanished endpoint. One declared dead while its fence is out
// fails the Quiet with ErrPeerDead, injections lost with a live target's
// broken connection with ErrOpTimeout, once every other fence is answered.
func (t *tcpTransport) quiet(from int) error { return t.fence(t.conns[from]) }

// fence sends the fence of the first of cs that needs one and recurses on
// the rest before reading its reply, so the call stack holds the
// connections awaiting one, each locked, taken in rank order.
func (t *tcpTransport) fence(cs []*tcpConn) error {
	for i, c := range cs {
		c.mu.Lock()
		if sent, err := c.sendFence(); sent || err != nil {
			rest := t.fence(cs[i+1:])
			if sent {
				if _, _, _, err = c.await(nil); err != nil {
					err = c.fenceFailed(err)
				}
			}
			c.mu.Unlock()
			return cmp.Or(err, rest)
		}
		c.mu.Unlock()
	}
	return nil
}

// sendFence writes c's fence if c needs one (c locked), reporting whether
// a reply is due, or why c's injections cannot be vouched for.
func (c *tcpConn) sendFence() (bool, error) {
	switch {
	case !c.unfenced && !c.lost:
		return false, nil
	case c.t.peerGone(c.to):
		c.drop()
		return false, nil
	case c.lost:
		c.lost = false
		return false, fmt.Errorf("shmem: Quiet %d→%d: injections lost with a broken connection: %w", c.from, c.to, ErrOpTimeout)
	}
	err := c.open()
	if err == nil {
		if err = c.send(&opReq{op: OpLoad, from: c.from, to: c.to, addr: WordHeartbeat.Addr()}, nil); err == nil {
			return true, nil
		}
	}
	return false, c.fenceFailed(err)
}

// fenceFailed writes c off, reporting the injections lost with its fence.
func (c *tcpConn) fenceFailed(err error) error {
	c.drop()
	c.lost = false
	return fmt.Errorf("shmem: Quiet %d→%d: %w", c.from, c.to, c.t.typed(err, c.to))
}

func (t *tcpTransport) close() error {
	if t.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, ln := range t.listeners {
		if ln != nil {
			if err := ln.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, row := range t.conns {
		for _, c := range row {
			c.mu.Lock()
			c.drop()
			c.mu.Unlock()
		}
	}
	t.wg.Wait()
	return errors.Join(errs...)
}
