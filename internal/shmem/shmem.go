// Package shmem emulates an OpenSHMEM-style partitioned global address
// space (PGAS) for the work-stealing runtimes in this repository.
//
// The paper this repository reproduces (Cartier, Dinan, Larkins, ICPP 2021)
// builds its task queues on OpenSHMEM one-sided communication: puts, gets,
// and 64-bit atomic operations executed against a symmetric heap without
// involving the target CPU. Go has no MPI/RMA ecosystem, so this package
// supplies the closest synthetic equivalent:
//
//   - Every processing element (PE) owns a symmetric heap. Collective
//     allocations performed in the same order on every PE yield the same
//     offset everywhere, as with shmem_malloc.
//   - One-sided operations (Put, Get, FetchAdd64, CompareSwap64, Load64,
//     Store64, and their non-blocking variants) act on a target
//     PE's heap without any cooperation from the target's worker code,
//     mirroring NIC-side RDMA and atomic offload.
//   - A configurable latency model charges each blocking operation a
//     network round-trip and each non-blocking injection a (smaller)
//     overhead, so protocol-level communication counts translate into
//     measured time the same way they do on a real fabric.
//
// An operation has one representation (opReq), one implementation
// (World.apply) and one way of landing on a heap (World.land, see op.go);
// three back-ends carry it to where the target heap is addressable. The
// direct back-end has the initiator land it, the same way on heaps that
// are Go slices (TransportLocal: PEs are goroutines in one address space;
// the default) and on one mmap'd segment shared by goroutines or
// processes (TransportShm). The TCP back-end marshals it over real
// sockets to a per-PE service goroutine, exercising a genuine network
// path. The sim back-end applies it from a deterministic lockstep
// scheduler in virtual time.
//
// The package deliberately keeps OpenSHMEM's flat, rank-addressed flavor:
// addresses are byte offsets into the symmetric heap, word operations
// require 8-byte alignment, and ordering is explicit (Quiet).
package shmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/trace"
)

// Addr is a byte offset into the symmetric heap. The same Addr names the
// same logical object on every PE (symmetric addressing).
type Addr uint64

// WordSize is the size of the atomic unit, in bytes. All atomic operations
// act on 64-bit words at WordSize-aligned addresses.
const WordSize = 8

// LineSize is the symmetric heap's allocation granule, one cache line.
const LineSize = 64

// TransportKind selects the communication substrate.
type TransportKind int

const (
	// TransportLocal runs all PEs as goroutines in one address space.
	// One-sided operations are executed by the initiating goroutine
	// directly against the target heap (as NIC offload would), with
	// latency injected per the world's LatencyModel.
	TransportLocal TransportKind = iota
	// TransportTCP marshals every one-sided operation over a loopback
	// TCP connection to a per-PE service goroutine that applies it to
	// the target heap. Latency is whatever the real sockets provide
	// (plus the model, if configured).
	TransportTCP
	// TransportSim runs the world under a deterministic lockstep
	// scheduler with a virtual clock: every latency, delivery, and
	// schedule decision is drawn from one PRNG (Config.Sim.Seed), so a
	// whole multi-PE run replays bit-identically from the seed. See
	// SimOptions. PE bodies must block only through shmem primitives
	// (including Wait.Poll in poll loops).
	TransportSim
	// TransportShm maps every PE's symmetric heap into one MAP_SHARED
	// segment file (typically in /dev/shm): one-sided operations are
	// direct sync/atomic ops and memcpys on the mapping — zero syscalls,
	// executed by the initiator exactly as under TransportLocal, and (via
	// Join) cross-process; see shm.go and ShmSupported.
	TransportShm
)

var transportNames = [...]string{TransportLocal: "local", TransportTCP: "tcp", TransportSim: "sim", TransportShm: "shm"}

func (k TransportKind) String() string { return enumName(transportNames[:], int(k), "TransportKind") }

// Config describes a world of PEs. It is the whole description: identical
// on every PE however the world is launched (NewWorld hosts all PEs in this
// process; Join hosts one and takes the per-process Endpoint alongside).
type Config struct {
	// NumPEs is the number of processing elements. Must be >= 1.
	NumPEs int
	// HeapBytes is the symmetric heap size per PE, in bytes: on linux,
	// address space reserved, a page committed at its first touch. Rounded
	// up to a multiple of LineSize; the first reservedHeapBytes hold the
	// runtime's own words. Default 1 MiB.
	HeapBytes int
	// Latency is the injected communication cost model.
	// The zero value charges nothing (suitable for correctness tests).
	Latency LatencyModel
	// Transport selects the substrate. Default TransportLocal; Join
	// accepts TransportTCP and TransportShm.
	Transport TransportKind
	// Fault, if non-nil, intercepts operations for fault injection.
	Fault FaultInjector
	// Sim configures the deterministic simulation transport; ignored by
	// the other transports.
	Sim SimOptions
	// FlightDir, when non-empty, is where flight journals are dumped on
	// failure triggers (peer death, op timeout, degraded termination,
	// sim deadlock detection). Empty means no dumps.
	FlightDir string

	// OpTimeout bounds each blocking round trip on the TCP transport
	// (connection deadline per attempt); an unresponsive peer surfaces as
	// an error wrapping ErrOpTimeout instead of a hang. Negative disables
	// the deadline. Default 10s.
	OpTimeout time.Duration
	// DeadAfter is how long a peer's heartbeat may stall — or how long
	// after a crash injection — before the detector declares it dead,
	// unwinding barriers and waits and failing ops against it with
	// ErrPeerDead. Multi-process worlds probe every
	// DeadAfter/heartbeatsPerDead. Default DefaultDeadAfter (virtual time
	// under the sim transport).
	DeadAfter time.Duration
}

// Endpoint is what differs per process in a multi-process world: which PE
// this process hosts and where it meets its peers.
type Endpoint struct {
	// Rank is this process's PE rank in [0, NumPEs).
	Rank int
	// Coordinator (tcp) is the host:port rank 0 listens on for the address
	// rendezvous; other ranks dial it.
	Coordinator string
	// Bind (tcp) is the local address the PE service listener binds to —
	// the address peers dial for one-sided operations. Default 127.0.0.1;
	// set a routable interface for multi-host runs.
	Bind string
	// Segment (shm) is the path of the segment file every rank maps (see
	// CreateShmSegment, DefaultShmDir, ShmSegmentName).
	Segment string
}

// DefaultDeadAfter is the failure detector's default horizon, exported for
// supervisors that must size their own grace windows from it.
const DefaultDeadAfter = 2 * time.Second

// Fixed parameters of every world. Each was once a Config field that no
// program set; a value that two callers need to differ on comes back as a
// field, not before.
const (
	// heartbeatsPerDead is how many probe periods fit in DeadAfter: a
	// death takes many missed beats, never one late tick.
	heartbeatsPerDead = 20
	// flightCap is each PE's flight-recorder ring size (events retained,
	// overwrite-oldest).
	flightCap = 4096
	// joinTimeout bounds a multi-process world's rendezvous: the tcp
	// address exchange, mapping the shm segment, and waiting for every
	// rank to attach.
	joinTimeout = 30 * time.Second
	// barrierTimeout bounds a multi-process barrier wait, so a peer lost
	// without the detector noticing surfaces as ErrBarrierTimeout.
	barrierTimeout = 5 * time.Minute
)

// The reserved line: the first LineSize bytes of every heap belong to the
// runtime, so user allocations — whole lines (Ctx.Alloc) — start at the
// same offset on every world and addresses stay symmetric across
// deployment modes. This is the whole table of runtime words (heap: who
// writes it; who reads it) — a new one is a new row here:
//
//	0  WordBarrierArrive  rank 0's: each barrier arriver fetch-adds 1, the last stores 0
//	1  WordBarrierGen     rank 0's: the last arriver fetch-adds 1; the others wait on it
//	2  WordHeartbeat      own: the rank's prober, every tick; peers' probers
//	3  WordState          own: the rank's transitions and exit (publishMember); peers' probers, the termination leader
//	4  WordSpawned        own: the rank's term.Detector.Publish; the rank's Counts, the termination leader
//	5  WordExecuted       own: likewise
//	6  WordFlag           own: the leader's verdict (its own too), StartJob's reset; the rank's Check
//	7  WordActivity       own: the rank's NoteActivity and Hold; the termination leader
//
// A peer reads a rank's words with one Get of the whole line, decoded by
// Line.Decode: the prober, words 2 and 3 every tick, and the termination
// leader, words 3-7 every pass. Every world runs the one barrier on words
// 0 and 1; an in-process world never probes, so word 2 stays zero.
const (
	WordBarrierArrive LineWord = iota
	WordBarrierGen
	WordHeartbeat
	WordState
	WordSpawned
	WordExecuted
	WordFlag
	WordActivity
	reservedHeapBytes = LineSize
)

// LineWord names a word of the reserved line.
type LineWord int

// Addr is w's heap address, the same on every PE.
func (w LineWord) Addr() Addr { return Addr(w) * WordSize }

// Line is a copy of one PE's reserved line, indexed by LineWord.
type Line [LineSize / WordSize]uint64

// Decode fills l from b, the bytes a Get of a peer's line returned.
func (l *Line) Decode(b []byte) {
	for i := range l {
		l[i] = binary.NativeEndian.Uint64(b[i*WordSize:])
	}
}

// heapSize is the one size rule for a requested n-byte heap, a Config's or
// a segment's: n holds the reserved words, and is rounded up to whole lines.
func heapSize(n int) (int, error) {
	if (n+WordSize-1)/WordSize < reservedHeapBytes/WordSize {
		return 0, fmt.Errorf("shmem: HeapBytes must be >= %d (the runtime's reserved words), got %d", reservedHeapBytes, n)
	}
	return (n + LineSize - 1) &^ (LineSize - 1), nil
}

// setDefaults validates the description and fills in unset fields; at is
// nil for an in-process world.
func (c *Config) setDefaults(at *Endpoint) error {
	if c.NumPEs < 1 {
		return fmt.Errorf("shmem: NumPEs must be >= 1, got %d", c.NumPEs)
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 1 << 20
	}
	var err error
	if c.HeapBytes, err = heapSize(c.HeapBytes); err != nil {
		return err
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 10 * time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = DefaultDeadAfter
	}
	for i, k := range c.Sim.Kill {
		if k.Rank < 0 || k.Rank >= c.NumPEs {
			return fmt.Errorf("shmem: Sim.Kill[%d] %d@%v: rank outside [0, %d)", i, k.Rank, k.At, c.NumPEs)
		}
	}
	for i, ch := range c.Sim.Churn {
		if ch.Rank < 0 || ch.Rank >= c.NumPEs {
			return fmt.Errorf("shmem: Sim.Churn[%d] %d@%v: rank outside [0, %d)", i, ch.Rank, ch.At, c.NumPEs)
		}
	}
	if at == nil {
		return nil
	}
	if at.Rank < 0 || at.Rank >= c.NumPEs {
		return fmt.Errorf("shmem: rank %d out of range [0, %d)", at.Rank, c.NumPEs)
	}
	switch c.Transport {
	case TransportTCP:
		if at.Coordinator == "" {
			return fmt.Errorf("shmem: Endpoint.Coordinator address required")
		}
		if at.Bind == "" {
			at.Bind = "127.0.0.1"
		}
	case TransportShm:
		if at.Segment == "" {
			return fmt.Errorf("shmem: Endpoint.Segment path required")
		}
	default:
		return fmt.Errorf("shmem: Join needs the tcp or shm transport, got %v", c.Transport)
	}
	return nil
}

// World owns the PEs, their heaps, and the transport.
type World struct {
	cfg       Config
	pes       []*peState
	heaps     *heapMapping // the heaps no segment holds, then the rings
	transport transport
	// sim is the transport again when it is the lockstep simulation, whose
	// scheduler Run must hand each PE goroutine to and take it back from.
	sim *simTransport
	// bars holds each rank's handle on the world's one barrier.
	bars []barrier

	// localRank is >= 0 when this World hosts exactly one PE of a larger
	// distributed world (see Join); -1 for fully local worlds.
	localRank int

	// fused holds the registered fused-operation handlers (see fused.go).
	fused fusedRegistry

	// live is the membership view / failure detector (liveness.go).
	live *Liveness

	// rings holds each PE's one event ring: the world's own always-on
	// flight ring until the PE attaches a trace ring in its place
	// (Ctx.AttachTrace; the pointer is atomic because peers stamp the
	// victim side of their steals into it). flightDumped makes failure
	// dumps once-only.
	rings        []atomic.Pointer[trace.Flight]
	flightDumped atomic.Bool

	// attaches counts Ctx creations (transport attachments); see Attaches.
	attaches atomic.Uint64

	// spin is the bounded-spin budget of a blocked wait (waitSpin; tests
	// zero it to force the park path).
	spin int

	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// peState is one PE's symmetric heap, as this process addresses it.
type peState struct {
	rank  int
	words []uint64 // backing store; guarantees 8-byte alignment
	bytes []byte   // byte view over words
	// wake is what blocked waits on this heap park on: Go memory beside a
	// private heap, the segment header's slot beside a shared one.
	wake *wakeWords

	// pauses counts this PE's Wait back-off steps (see Wait.Poll).
	pauses atomic.Uint64
	// yields counts the busy-PE scheduling points that ceded the processor
	// (see Ctx.Yields); held is the mono reading of the PE's last cede: a
	// beat's or a compute wait's (cede), a young poll's, a barrier wait's.
	yields atomic.Uint64
	held   atomic.Int64
}

// wakeWords is a heap's futex pair: a sequence that every landing bumps
// while waiters are parked, and the parked-waiter count that lets writers
// skip the bump and the wake syscall while it is zero. They sit beside the
// heap, never in it: heap bytes — even the reserved runtime words — are
// addressable by one-sided operations, and the wake protocol must never be
// corruptible by (or mutate) user data.
type wakeWords struct{ seq, waiters uint64 }

// newPEState builds a PE over mem — a slice of the world's own heaps
// (anonHeaps) or of a segment, both line-aligned — and the wake words beside
// it. World.apply, the wait loop and Ctx's fast path cannot tell them apart.
func newPEState(rank int, mem []byte, wake *wakeWords) *peState {
	return &peState{rank: rank, words: aliasWords(mem), bytes: mem, wake: wake}
}

// heapMapping is a world's one anonymous mapping (anonHeaps): the heaps no
// segment holds, then every PE's ring. The World and each of its rings point
// to it, and every Ctx — so every holder of an OwnWords view — to the World,
// so its finalizer runs only once no heap or ring byte can be reached.
type heapMapping struct{ data []byte }

// wakeWaiters unparks the waits blocked on this heap after a landing
// changed it (or after a word watched through it moved: tcp's ack count).
// The fast path — no one parked — is one atomic load, so a landing costs no
// syscall in the common case. Otherwise bump the sequence (so a waiter
// racing toward futexWait sees a changed value and retries) and wake.
//
// Seq-cst interleaving argument, the same for Go and mapped memory: the
// waiter does inc(waiters), read seq, check word, futexWait(seq); the
// writer does write(word), load(waiters), then bump seq + wake. If the
// writer's waiters load sees 0, the waiter's inc had not happened, so its
// later word check sees the write and it never parks on the stale value.
// Otherwise the writer bumps seq and wakes: either the wake lands, or the
// bump makes the waiter's futexWait return EAGAIN immediately.
func (p *peState) wakeWaiters() {
	if atomic.LoadUint64(&p.wake.waiters) == 0 {
		return
	}
	atomic.AddUint64(&p.wake.seq, 1)
	futexWake(futexHalf(&p.wake.seq), math.MaxInt32)
}

// NewWorld validates the configuration and builds a world whose PEs all
// live in this process. PEs do not run until Run is called.
func NewWorld(cfg Config) (*World, error) { return newWorld(cfg, nil) }

// Join builds this process's slice of a multi-process world described by
// cfg: it hosts the one PE at.Rank and meets its peers where at says.
// Every process calls Join with an identical cfg. cfg.Transport picks how
// remote heaps are reached:
//
//   - TransportTCP: only the local heap exists here; the process listens
//     on at.Bind, exchanges listener addresses through rank 0's
//     at.Coordinator, and one-sided operations against remote ranks travel
//     over TCP to the peer processes ("RMA over RPC").
//   - TransportShm: every rank maps the segment file at.Segment (made by
//     the launcher with CreateShmSegment), so EVERY rank's heap is
//     addressable here and remote operations are atomics and memcpys on
//     the mapping, with zero syscalls. The attach bitmap is the
//     rendezvous; no coordinator socket is needed.
//
// The returned world's Run executes the body once, for the local rank.
func Join(cfg Config, at Endpoint) (*World, error) { return newWorld(cfg, &at) }

// newWorld is the one assembly path: heaps, flight set, liveness, barrier,
// transport, prober. at is nil for an in-process world and this process's
// endpoint for a multi-process one.
func newWorld(cfg Config, at *Endpoint) (*World, error) {
	if err := cfg.setDefaults(at); err != nil {
		return nil, err
	}
	w := &World{cfg: cfg, localRank: -1, spin: waitSpin}
	if at != nil {
		w.localRank = at.Rank
	}
	// The memory this process addresses: the heaps — all of them on a
	// mapped segment or in an in-process world, only the local rank's over
	// tcp — and every PE's ring. One anonymous mapping (anonHeaps) holds the
	// heaps no segment holds, then the rings.
	heaps := cfg.NumPEs
	if cfg.Transport == TransportShm {
		heaps = 0
	} else if at != nil {
		heaps = 1
	}
	size := heaps*cfg.HeapBytes + cfg.NumPEs*trace.RingBytes(flightCap)
	var err error
	if w.heaps, err = anonHeaps(size); err != nil {
		return nil, fmt.Errorf("shmem: mapping %d heaps of %d bytes and %d rings: %w", heaps, cfg.HeapBytes, cfg.NumPEs, err)
	}
	own := w.heaps.data
	w.rings = make([]atomic.Pointer[trace.Flight], cfg.NumPEs)
	for r, f := range trace.NewRings(own[heaps*cfg.HeapBytes:], w.heaps, 0, cfg.NumPEs, flightCap) {
		w.rings[r].Store(f)
	}
	var seg *shmSegment
	if cfg.Transport == TransportShm {
		if seg, err = openShmSegment(cfg, at); err != nil {
			return nil, fmt.Errorf("shmem: starting shm transport: %w", err)
		}
		runtime.SetFinalizer(seg, (*shmSegment).unmap) // for a world dropped unrun; Run unmaps it
	}
	w.pes = make([]*peState, cfg.NumPEs)
	for r := range w.pes {
		switch {
		case seg != nil:
			w.pes[r] = newPEState(r, seg.heap(r), seg.wakeSlot(r))
		case at == nil || r == at.Rank:
			w.pes[r] = newPEState(r, own[:cfg.HeapBytes:cfg.HeapBytes], new(wakeWords))
			own = own[cfg.HeapBytes:]
		}
	}
	w.live = newLiveness(w, cfg.NumPEs)
	w.bars = make([]barrier, cfg.NumPEs)
	for r := range w.bars {
		w.bars[r] = newBarrier(w, r, cfg.NumPEs)
	}
	switch cfg.Transport {
	case TransportLocal:
		w.transport = &directTransport{hostWaits: hostWaits{w}}
	case TransportTCP:
		t, err := newTCPTransport(w, at)
		if err != nil {
			return nil, fmt.Errorf("shmem: starting tcp transport: %w", err)
		}
		w.transport = t
	case TransportSim:
		w.sim = newSimTransport(w)
		w.transport = w.sim
	case TransportShm:
		w.transport = &directTransport{hostWaits: hostWaits{w}, seg: seg}
		if at != nil {
			// All peers must be in the attach bitmap BEFORE the failure
			// detector starts, or a slow-starting peer's zero heartbeat
			// could be declared dead while it is still exec'ing.
			if err := seg.awaitAttached(); err != nil {
				w.transport.close()
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("shmem: unknown transport %v", cfg.Transport)
	}
	if at != nil {
		// The heartbeat prober starts now and stops with the run; it is the
		// only failure-detection input a multi-process world has.
		w.live.startProber(at.Rank)
	}
	return w, nil
}

// NumPEs returns the number of processing elements in the world.
func (w *World) NumPEs() int { return w.cfg.NumPEs }

// Ring returns the event ring rank's PE currently records into. A world's
// own ring holds its mapping, so it reads mapped memory past the World.
func (w *World) Ring(rank int) *trace.Flight { return w.rings[rank].Load() }

// flightState journals a failure-detector transition (peer -> new state)
// into the observing process's ring: the local rank's in dist mode, ring
// 0 for in-process worlds (the detector is world-global there, so one
// copy suffices).
func (w *World) flightState(peer int, s PeerState) {
	w.Ring(max(w.localRank, 0)).Record(trace.PeerState, int64(peer), int64(s), 0)
}

// DumpFlight writes the rings this process records into — whichever ring
// each PE has in use — to Config.FlightDir, tagged with reason. No-op when
// no directory is configured; only the first call dumps (a failing run
// fires several triggers — peer-death observations, op timeouts, degraded
// termination — and one journal set per process is what post-mortem
// tooling wants).
func (w *World) DumpFlight(reason string) error {
	if w.cfg.FlightDir == "" || !w.flightDumped.CompareAndSwap(false, true) {
		return nil
	}
	if err := os.MkdirAll(w.cfg.FlightDir, 0o755); err != nil {
		return err
	}
	for r := range w.rings {
		f := w.Ring(r)
		switch {
		case w.localRank < 0 || r == w.localRank:
			// Every ring of an in-process world; a distributed process
			// hosts one PE and peers dump their own.
			if _, err := f.DumpFile(w.cfg.FlightDir, w.cfg.NumPEs, reason); err != nil {
				return err
			}
		case f.Len() > 0:
			// On the shm transport this process also recorded victim-side
			// events for remote ranks (ops it applied to their mapped
			// heaps). Dump those rings under via-tagged names so each
			// process's files are distinct; event sets are disjoint across
			// processes, so post-mortem merging is duplicate-free.
			name := fmt.Sprintf("flight-rank%d-via%d.jsonl", r, w.localRank)
			out, err := os.Create(filepath.Join(w.cfg.FlightDir, name))
			if err != nil {
				return err
			}
			werr := f.WriteTo(out, w.cfg.NumPEs, reason)
			if cerr := out.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		}
	}
	return nil
}

// Config returns a copy of the world's (defaulted) configuration.
func (w *World) Config() Config { return w.cfg }

// fail records the first fatal world error (e.g. a transport failure).
// Every wait, the barrier's included, gives up on it (waitReq.giveUp), so
// PEs do not deadlock waiting for a peer that will never arrive.
func (w *World) fail(err error) {
	if err == nil {
		return
	}
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.failed.Store(true)
}

// Err returns the recorded fatal world error, if any.
func (w *World) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// Run executes body once per PE, each on its own goroutine, and waits for
// all of them. It returns the first body error, joined with any fatal
// world error. Run may be called only once per World.
//
// For a multi-process world (Join), only the local PE runs in this process.
func (w *World) Run(body func(*Ctx) error) error {
	errs := make([]error, w.cfg.NumPEs)
	sim := w.sim
	var wg sync.WaitGroup
	for rank := 0; rank < w.cfg.NumPEs; rank++ {
		if w.localRank >= 0 && rank != w.localRank {
			continue
		}
		wg.Add(1)
		Host(1)
		go func(rank int) {
			defer wg.Done()
			defer Host(-1)
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("shmem: PE %d panicked: %v", rank, r)
					w.fail(errs[rank])
				}
			}()
			if sim != nil {
				// Lockstep handshake: wait for the scheduler's start grant,
				// and tell it when this PE's body is finished (after any
				// failure has been recorded, so the scheduler can unpark
				// the surviving PEs promptly) — or when the grant was
				// refused, since the PE holds its slot either way.
				defer sim.peDone(rank)
				if err := sim.peStart(rank); err != nil {
					errs[rank] = err
					return
				}
			}
			ctx := w.newCtx(rank)
			errs[rank] = body(ctx)
			if errs[rank] != nil {
				if errors.Is(errs[rank], ErrPEKilled) {
					// A crash-injected PE unwinding is the expected outcome,
					// not a world failure: survivors keep running in
					// degraded mode. The error is still reported to the
					// caller through the joined result.
					errs[rank] = fmt.Errorf("shmem: PE %d killed: %w", rank, errs[rank])
					return
				}
				// A failed PE will never reach later barriers; poison them
				// so its peers unwind instead of deadlocking.
				w.fail(fmt.Errorf("shmem: PE %d failed: %w", rank, errs[rank]))
			}
		}(rank)
	}
	wg.Wait()
	if r := w.localRank; r >= 0 {
		// Publish a clean exit while the prober still beats, so peers read
		// it rather than declare this PE dead: a tcp rank answers their
		// probes for two more periods; a segment keeps the word readable.
		// A failed or killed PE is left to the detector.
		if errs[r] == nil {
			w.live.end(r, PeerExited)
		}
		if w.cfg.Transport == TransportTCP && w.cfg.NumPEs > 1 {
			time.Sleep(2 * w.cfg.DeadAfter / heartbeatsPerDead)
		}
	}
	w.live.stopProber()
	if cerr := w.transport.close(); cerr != nil {
		errs = append(errs, fmt.Errorf("shmem: closing transport: %w", cerr))
	}
	errs = append(errs, w.Err())
	return errors.Join(errs...)
}

// checkWord validates a word-aligned, in-bounds atomic address and returns
// its word.
func (p *peState) checkWord(addr Addr) (*uint64, error) {
	if addr%WordSize != 0 {
		return nil, fmt.Errorf("shmem: unaligned atomic address %#x", uint64(addr))
	}
	if addr/WordSize >= Addr(len(p.words)) {
		return nil, fmt.Errorf("shmem: atomic address %#x out of heap bounds (%d bytes)", uint64(addr), len(p.bytes))
	}
	return &p.words[addr/WordSize], nil
}

// checkRange validates an in-bounds byte range.
func (p *peState) checkRange(addr Addr, n int) error {
	if n < 0 {
		return fmt.Errorf("shmem: negative transfer length %d", n)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(len(p.bytes)) || end < uint64(addr) {
		return fmt.Errorf("shmem: range [%#x, %#x) out of heap bounds (%d bytes)", uint64(addr), end, len(p.bytes))
	}
	return nil
}

// copyIn writes src into the heap at addr. The word-aligned body of the
// transfer is written with per-word atomic stores: heap regions are
// routinely read by one PE while written by another under protocol-level
// (not lock-level) ordering — e.g. a thief copying a claimed task block —
// and per-word atomics give every such transfer a well-defined place in
// the memory model on all transports. Payload layouts are word-aligned by
// construction; ragged edges fall back to plain copies. The caller must
// have validated the range with checkRange.
func (p *peState) copyIn(addr Addr, src []byte) {
	i := 0
	if addr%WordSize == 0 {
		base := int(addr) / WordSize
		for ; i+WordSize <= len(src); i += WordSize {
			atomic.StoreUint64(&p.words[base+i/WordSize], binary.NativeEndian.Uint64(src[i:]))
		}
	}
	copy(p.bytes[int(addr)+i:int(addr)+len(src)], src[i:])
}

// copyOut reads len(dst) bytes from the heap at addr into dst, with the
// same per-word atomicity as copyIn.
func (p *peState) copyOut(addr Addr, dst []byte) {
	i := 0
	if addr%WordSize == 0 {
		base := int(addr) / WordSize
		for ; i+WordSize <= len(dst); i += WordSize {
			binary.NativeEndian.PutUint64(dst[i:], atomic.LoadUint64(&p.words[base+i/WordSize]))
		}
	}
	copy(dst[i:], p.bytes[int(addr)+i:int(addr)+len(dst)])
}
