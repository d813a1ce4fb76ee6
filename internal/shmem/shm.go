package shmem

// This file implements the shm heap: a cross-process symmetric heap over
// one MAP_SHARED file (typically in /dev/shm), the closest a multi-process
// Go deployment gets to the paper's NIC-offloaded one-sided operations.
// Every process maps the same segment and the direct back-end (direct.go)
// applies operations to it exactly as it does to a private heap, so
//
//   - atomics are direct sync/atomic operations on the mapping: zero
//     syscalls, executed by the initiator, never involving the target
//     process's CPU — the defining property of hardware atomic offload;
//   - bulk transfers (put/get/getv) are memcpy over the mapping;
//   - non-blocking operations complete at injection, so quiet is a no-op
//     fence.
//
// Blocked waits are the one spin-then-park loop every heap uses
// (hostWaits.waitWord); what the segment adds is that the per-PE wake
// words it parks on are in the header, so the futex(2) wake crosses
// processes (sub-microsecond; elsewhere than linux it degrades to a
// bounded sleep, futex_fallback.go).
//
// Segment layout (all offsets in bytes):
//
//   [0, shmHeaderBytes)                  header (uint64 words):
//       word 0  magic   "SWS-SHM1"
//       word 1  layout version
//       word 2  NumPEs
//       word 3  HeapBytes (per PE)
//       word 4  ready flag (stored last by the creator; attachers poll
//               it before validating anything — the torn-read guard)
//       word 8+rank                     attach bitmap: 0 empty, 1 live,
//                                       2 detached
//       word 8+NumPEs+2*rank (+1)       per-PE wake words: sequence,
//                                       parked-waiter count
//   [shmHeaderBytes + rank*HeapBytes, +HeapBytes)  rank's symmetric heap
//
// The wake words live in the header, NOT the heap (see wakeWords).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// --- Segment layout --------------------------------------------------------

const (
	shmMagic       = 0x5357_532d_5348_4d31 // "SWS-SHM1"
	shmVersion     = 1
	shmHeaderBytes = 4096
)

// Header word indices.
const (
	shmHdrMagic      = 0
	shmHdrVersion    = 1
	shmHdrNumPEs     = 2
	shmHdrHeapBytes  = 3
	shmHdrReady      = 4
	shmHdrAttachBase = 8 // + rank
)

// Attach bitmap states.
const (
	shmAttachEmpty uint64 = 0
	shmAttachLive  uint64 = 1
	shmAttachGone  uint64 = 2
)

// shmMaxPEs is how many ranks fit in the header: one attach word plus
// two wake words (sequence, waiter count) per rank.
const shmMaxPEs = (shmHeaderBytes/WordSize - shmHdrAttachBase) / 3

// shmSeqLowHalf indexes the 32-bit half of a uint64 that changes when the
// word is incremented — the half futex(2) must watch.
var shmSeqLowHalf = func() int {
	var probe uint32 = 1
	if *(*byte)(unsafe.Pointer(&probe)) == 1 {
		return 0 // little-endian: low half first
	}
	return 1
}()

// futexHalf returns the futex-watchable half of a wake sequence word.
func futexHalf(w *uint64) *uint32 {
	return &(*[2]uint32)(unsafe.Pointer(w))[shmSeqLowHalf]
}

// --- Segment lifecycle -----------------------------------------------------

// shmSegment is one mapped segment file.
type shmSegment struct {
	path      string
	data      []byte
	hdr       []uint64 // aliases data[:shmHeaderBytes]
	numPEs    int
	heapBytes int
	owner     bool // unlink on close

	unmapOnce sync.Once
	unmapErr  error
}

func shmSegmentSize(numPEs, heapBytes int) int { return shmHeaderBytes + numPEs*heapBytes }

func shmValidateGeometry(numPEs, heapBytes int) error {
	if numPEs < 1 || numPEs > shmMaxPEs {
		return fmt.Errorf("shmem: shm segment NumPEs %d out of range [1, %d]", numPEs, shmMaxPEs)
	}
	if heapBytes < reservedHeapBytes || heapBytes%LineSize != 0 {
		return fmt.Errorf("shmem: shm heap size %d must be a multiple of %d and >= %d",
			heapBytes, LineSize, reservedHeapBytes)
	}
	return nil
}

func aliasWords(mem []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/WordSize)
}

// createShmSegment creates, sizes, maps, and initializes a fresh segment
// file. The ready flag is stored last (release order): a concurrent
// attacher that maps the file early sees ready == 0 and keeps polling,
// never a torn header.
func createShmSegment(path string, numPEs, heapBytes int) (*shmSegment, error) {
	if err := shmValidateGeometry(numPEs, heapBytes); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmem: creating shm segment: %w", err)
	}
	size := shmSegmentSize(numPEs, heapBytes)
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shmem: sizing shm segment: %w", err)
	}
	data, err := mmapShared(f, size)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmem: mapping shm segment: %w", err)
	}
	s := &shmSegment{
		path: path, data: data, hdr: aliasWords(data[:shmHeaderBytes]),
		numPEs: numPEs, heapBytes: heapBytes, owner: true,
	}
	s.hdr[shmHdrMagic] = shmMagic
	s.hdr[shmHdrVersion] = shmVersion
	s.hdr[shmHdrNumPEs] = uint64(numPEs)
	s.hdr[shmHdrHeapBytes] = uint64(heapBytes)
	atomic.StoreUint64(&s.hdr[shmHdrReady], 1)
	return s, nil
}

// attachShmSegment maps an existing segment file, waiting (up to timeout)
// for the creator to finish sizing and initializing it.
func attachShmSegment(path string, numPEs, heapBytes int, timeout time.Duration) (*shmSegment, error) {
	if err := shmValidateGeometry(numPEs, heapBytes); err != nil {
		return nil, err
	}
	want := shmSegmentSize(numPEs, heapBytes)
	deadline := time.Now().Add(timeout)
	var data []byte
	for {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			st, serr := f.Stat()
			if serr == nil && st.Size() == int64(want) {
				data, err = mmapShared(f, want)
				f.Close()
				if err != nil {
					return nil, fmt.Errorf("shmem: mapping shm segment: %w", err)
				}
				break
			}
			f.Close()
			if serr == nil && st.Size() > int64(want) {
				return nil, fmt.Errorf("shmem: shm segment %s is %d bytes, want %d (geometry mismatch?)",
					path, st.Size(), want)
			}
			// Created but not yet truncated to size; keep waiting.
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shmem: shm segment %s not ready after %v: %v", path, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
	s := &shmSegment{
		path: path, data: data, hdr: aliasWords(data[:shmHeaderBytes]),
		numPEs: numPEs, heapBytes: heapBytes,
	}
	for atomic.LoadUint64(&s.hdr[shmHdrReady]) != 1 {
		if time.Now().After(deadline) {
			s.unmap()
			return nil, fmt.Errorf("shmem: shm segment %s never became ready (creator died?)", path)
		}
		time.Sleep(time.Millisecond)
	}
	if s.hdr[shmHdrMagic] != shmMagic || s.hdr[shmHdrVersion] != shmVersion {
		s.unmap()
		return nil, fmt.Errorf("shmem: %s is not an sws shm segment (magic %#x version %d)",
			path, s.hdr[shmHdrMagic], s.hdr[shmHdrVersion])
	}
	if got := int(s.hdr[shmHdrNumPEs]); got != numPEs {
		s.unmap()
		return nil, fmt.Errorf("shmem: shm segment %s has %d PEs, want %d", path, got, numPEs)
	}
	if got := int(s.hdr[shmHdrHeapBytes]); got != heapBytes {
		s.unmap()
		return nil, fmt.Errorf("shmem: shm segment %s has %d-byte heaps, want %d", path, got, heapBytes)
	}
	return s, nil
}

// heap returns rank's symmetric heap slice of the mapping.
func (s *shmSegment) heap(rank int) []byte {
	off := shmHeaderBytes + rank*s.heapBytes
	return s.data[off : off+s.heapBytes : off+s.heapBytes]
}

// wakeSlot returns rank's wake words, which for a mapped heap live in the
// header so every attached process parks on and bumps the same pair.
func (s *shmSegment) wakeSlot(rank int) *wakeWords {
	return (*wakeWords)(unsafe.Pointer(&s.hdr[shmHdrAttachBase+s.numPEs+2*rank]))
}

// attachRank claims rank's attach slot; failure means another process
// already holds that rank (a mislaunched duplicate).
func (s *shmSegment) attachRank(rank int) error {
	if rank < 0 || rank >= s.numPEs {
		return fmt.Errorf("shmem: rank %d out of range [0, %d)", rank, s.numPEs)
	}
	if !atomic.CompareAndSwapUint64(&s.hdr[shmHdrAttachBase+rank], shmAttachEmpty, shmAttachLive) {
		return fmt.Errorf("shmem: rank %d already attached to shm segment %s (state %d)",
			rank, s.path, atomic.LoadUint64(&s.hdr[shmHdrAttachBase+rank]))
	}
	return nil
}

// detachRank marks rank cleanly gone (distinct from never-attached, so a
// post-mortem can tell a clean exit from a crash).
func (s *shmSegment) detachRank(rank int) {
	atomic.StoreUint64(&s.hdr[shmHdrAttachBase+rank], shmAttachGone)
}

// attachedCount returns how many ranks are currently live in the bitmap.
func (s *shmSegment) attachedCount() int {
	n := 0
	for r := 0; r < s.numPEs; r++ {
		if atomic.LoadUint64(&s.hdr[shmHdrAttachBase+r]) == shmAttachLive {
			n++
		}
	}
	return n
}

func (s *shmSegment) unmap() error {
	s.unmapOnce.Do(func() {
		if s.data != nil {
			s.unmapErr = munmapFile(s.data)
			s.data, s.hdr = nil, nil
		}
	})
	return s.unmapErr
}

// close unmaps the segment and, when this handle owns the file, unlinks
// it. Attached peers keep their mappings — unlinking only removes the
// name.
func (s *shmSegment) close() error {
	err := s.unmap()
	if s.owner {
		if rerr := os.Remove(s.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = rerr
		}
	}
	return err
}

// --- Segment naming and stale-segment hygiene ------------------------------

// ShmSupported reports whether this platform can run the shm transport
// (shared file mappings). Futex wakeups additionally require linux;
// elsewhere blocked waits poll with bounded sleeps.
func ShmSupported() bool { return shmSupported }

// DefaultShmDir returns where segment files live: /dev/shm when present
// (a ramdisk on linux, so the "file" is pure memory), else the system
// temp directory.
func DefaultShmDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// ShmSegmentName returns a fresh segment file name, sws-<pid>-<nonce>.
// Embedding the creator's pid lets SweepStaleShmSegments recognize
// leftovers from crashed runs.
func ShmSegmentName() string {
	return fmt.Sprintf("sws-%d-%08x", os.Getpid(), rand.Uint32())
}

var shmSegmentNameRE = regexp.MustCompile(`^sws-([0-9]+)-[0-9a-f]+$`)

// SweepStaleShmSegments removes segment files in dir whose creating
// process no longer exists (SIGKILLed runs cannot unlink their own
// segments). Returns the paths removed. Live processes' segments and
// files that do not match the sws-<pid>-<nonce> pattern are left alone.
func SweepStaleShmSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		m := shmSegmentNameRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pid, err := strconv.Atoi(m[1])
		if err != nil || pid == os.Getpid() || pidAlive(pid) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if os.Remove(p) == nil {
			removed = append(removed, p)
		}
	}
	return removed, nil
}

// --- Opening a world's segment ---------------------------------------------

// openShmSegment maps the segment behind a TransportShm world and claims
// this process's ranks in its attach bitmap.
//
// An in-process world (at == nil) creates its own segment, so PEs are
// goroutines but their heaps live in a real MAP_SHARED mapping and every op
// takes the exact cross-process code path. The file is unlinked immediately
// after creation — the mapping persists until close, and an in-process
// world can never leak a segment, however it dies. A joined world attaches
// to the launcher's segment at at.Segment and claims at.Rank.
func openShmSegment(cfg Config, at *Endpoint) (*shmSegment, error) {
	if !shmSupported {
		return nil, fmt.Errorf("shmem: shm transport is not supported on this platform")
	}
	if at != nil {
		seg, err := attachShmSegment(at.Segment, cfg.NumPEs, cfg.HeapBytes, joinTimeout)
		if err != nil {
			return nil, err
		}
		if err := seg.attachRank(at.Rank); err != nil {
			seg.unmap()
			return nil, err
		}
		return seg, nil
	}
	path := filepath.Join(DefaultShmDir(), ShmSegmentName())
	seg, err := createShmSegment(path, cfg.NumPEs, cfg.HeapBytes)
	if err != nil {
		return nil, err
	}
	os.Remove(path)
	seg.owner = false
	for r := 0; r < cfg.NumPEs; r++ {
		if err := seg.attachRank(r); err != nil {
			seg.close()
			return nil, err
		}
	}
	return seg, nil
}

// awaitAttached is the shm rendezvous: wait until every rank is live in
// the attach bitmap.
func (s *shmSegment) awaitAttached() error {
	deadline := time.Now().Add(joinTimeout)
	for s.attachedCount() < s.numPEs {
		if time.Now().After(deadline) {
			return fmt.Errorf("shmem: only %d/%d ranks attached to %s after %v",
				s.attachedCount(), s.numPEs, s.path, joinTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// --- Launcher-side segment handle ------------------------------------------

// ShmSegment is a launcher's handle on a created segment: the launcher
// creates it, passes its path to the worker processes, and closes it
// (unmap + unlink) when the run ends. Attached workers keep their
// mappings across the unlink.
type ShmSegment struct {
	seg *shmSegment
}

// CreateShmSegment creates and initializes a segment file for a world of
// numPEs ranks with heapBytes-sized symmetric heaps (sized as Config rules
// HeapBytes: rounded up to a line multiple, at least the reserved region).
func CreateShmSegment(path string, numPEs, heapBytes int) (*ShmSegment, error) {
	if !shmSupported {
		return nil, fmt.Errorf("shmem: shm transport is not supported on this platform")
	}
	heapBytes, err := heapSize(heapBytes)
	if err != nil {
		return nil, err
	}
	seg, err := createShmSegment(path, numPEs, heapBytes)
	if err != nil {
		return nil, err
	}
	return &ShmSegment{seg: seg}, nil
}

// Path returns the segment file's path (workers' Endpoint.Segment).
func (s *ShmSegment) Path() string { return s.seg.path }

// AttachedCount returns how many ranks are currently live in the attach
// bitmap — supervision tooling reads it to tell a stuck launch from a
// crashed worker.
func (s *ShmSegment) AttachedCount() int { return s.seg.attachedCount() }

// Close unmaps the segment and unlinks the file. Safe to call while
// workers are attached (their mappings persist); idempotent.
func (s *ShmSegment) Close() error { return s.seg.close() }
