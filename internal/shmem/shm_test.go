package shmem

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func requireShm(t *testing.T) {
	t.Helper()
	if !ShmSupported() {
		t.Skip("shm transport not supported on this platform")
	}
}

func TestShmSegmentLifecycle(t *testing.T) {
	requireShm(t)
	dir := t.TempDir()
	path := filepath.Join(dir, ShmSegmentName())
	seg, err := createShmSegment(path, 3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := createShmSegment(path, 3, 1<<16); err == nil {
		t.Error("duplicate create (O_EXCL) succeeded")
	}
	att, err := attachShmSegment(path, 3, 1<<16, time.Second)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	// Geometry mismatches must be rejected, not silently mapped.
	if _, err := attachShmSegment(path, 4, 1<<16, 50*time.Millisecond); err == nil {
		t.Error("attach with wrong NumPEs succeeded")
	}
	if _, err := attachShmSegment(path, 3, 1<<15, 50*time.Millisecond); err == nil {
		t.Error("attach with wrong HeapBytes succeeded")
	}
	// Stores through one mapping are visible through the other.
	a := seg.heap(2)
	b := att.heap(2)
	a[100] = 0xAB
	if b[100] != 0xAB {
		t.Error("store through creator mapping not visible through attacher mapping")
	}
	if err := att.unmap(); err != nil {
		t.Errorf("attacher unmap: %v", err)
	}
	if err := seg.close(); err != nil {
		t.Errorf("creator close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("segment file survived owner close: %v", err)
	}
}

// TestShmAttachBitmapExactlyOnce races many claimants per rank and
// requires the attach CAS to admit exactly one (run under -race to also
// check the bitmap accesses are sound).
func TestShmAttachBitmapExactlyOnce(t *testing.T) {
	requireShm(t)
	const ranks, claimants = 4, 8
	path := filepath.Join(t.TempDir(), ShmSegmentName())
	seg, err := createShmSegment(path, ranks, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	var wins [ranks]atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		for c := 0; c < claimants; c++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if seg.attachRank(r) == nil {
					wins[r].Add(1)
				}
			}(r)
		}
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		if n := wins[r].Load(); n != 1 {
			t.Errorf("rank %d: %d claimants won the attach CAS, want exactly 1", r, n)
		}
	}
	if n := seg.attachedCount(); n != ranks {
		t.Errorf("attachedCount = %d, want %d", n, ranks)
	}
	seg.detachRank(1)
	if n := seg.attachedCount(); n != ranks-1 {
		t.Errorf("attachedCount after detach = %d, want %d", n, ranks-1)
	}
}

// TestShmTornReadGuard maps a right-sized file whose creator "died"
// before publishing the ready flag: attach must time out cleanly, never
// validate a torn header.
func TestShmTornReadGuard(t *testing.T) {
	requireShm(t)
	path := filepath.Join(t.TempDir(), ShmSegmentName())
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(shmSegmentSize(2, 1<<12))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := attachShmSegment(path, 2, 1<<12, 100*time.Millisecond); err == nil {
		t.Fatal("attach validated a segment whose ready flag was never set")
	}
}

func TestShmSweep(t *testing.T) {
	requireShm(t)
	dir := t.TempDir()
	// A dead creator: run a process to completion and reuse its pid.
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("running 'true': %v", err)
	}
	deadPid := cmd.Process.Pid
	stale := filepath.Join(dir, fmt.Sprintf("sws-%d-deadbeef", deadPid))
	mine := filepath.Join(dir, ShmSegmentName()) // our own pid: live
	init := filepath.Join(dir, "sws-1-00000001") // pid 1: live
	other := filepath.Join(dir, "not-a-segment")
	for _, p := range []string{stale, mine, init, other} {
		if err := os.WriteFile(p, []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := SweepStaleShmSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale {
		t.Errorf("swept %v, want exactly [%s]", removed, stale)
	}
	for _, p := range []string{mine, init, other} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed %s, which belongs to a live process or is not a segment", p)
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale segment %s survived the sweep", stale)
	}
}

// TestJoinOverShmExactlyOnce runs a real multi-member shm world — every rank
// a separate Join against one segment, as separate processes would —
// and checks fetch-add claim accounting is exactly-once: every counter
// value in [0, total) is claimed by exactly one rank.
func TestJoinOverShmExactlyOnce(t *testing.T) {
	requireShm(t)
	const (
		ranks  = 4
		claims = 2000
		total  = ranks * claims
	)
	path := filepath.Join(t.TempDir(), ShmSegmentName())
	seg, err := CreateShmSegment(path, ranks, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	var mu sync.Mutex
	seen := make(map[uint64]int)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := Join(Config{NumPEs: ranks, HeapBytes: 1 << 16, Transport: TransportShm}, Endpoint{Rank: rank, Segment: path})
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = w.Run(func(c *Ctx) error {
				ctr := c.MustAlloc(WordSize)
				if err := c.Barrier(); err != nil {
					return err
				}
				got := make([]uint64, 0, claims)
				for i := 0; i < claims; i++ {
					v, err := c.FetchAdd64(0, ctr, 1)
					if err != nil {
						return err
					}
					got = append(got, v)
				}
				mu.Lock()
				for _, v := range got {
					seen[v]++
				}
				mu.Unlock()
				return c.Barrier()
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if len(seen) != total {
		t.Fatalf("claimed %d distinct values, want %d", len(seen), total)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("counter value %d claimed %d times, want exactly once", v, n)
		}
	}
	if seg.AttachedCount() != 0 {
		t.Errorf("%d ranks still attached after Run teardown, want 0", seg.AttachedCount())
	}
}

// TestShmInProcLeavesNoSegmentFiles: in-process shm worlds unlink their
// segment immediately, so however a test run dies, nothing can leak.
func TestShmInProcLeavesNoSegmentFiles(t *testing.T) {
	requireShm(t)
	before, err := filepath.Glob(filepath.Join(DefaultShmDir(), fmt.Sprintf("sws-%d-*", os.Getpid())))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{NumPEs: 2, Transport: TransportShm})
	if err != nil {
		t.Fatal(err)
	}
	after, err := filepath.Glob(filepath.Join(DefaultShmDir(), fmt.Sprintf("sws-%d-*", os.Getpid())))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("in-process shm world left a segment file: before %v, after %v", before, after)
	}
	if err := w.Run(func(c *Ctx) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

// TestShmFetchAddLatencyVsTCP guards what the shm transport is for: a
// blocking remote fetch-add on the shared mapping must be at least 10x
// faster than the same op over loopback TCP (without -race the gap reads
// 31-301x). It is a wall-clock rate, and under -race on a 2-core box the
// ratio reads 9-13x, so it fails about one run in four there: CI's race x3
// step skips it by name, and its shuffled race step and the plain runs keep
// it. It leaves CI when the comparison becomes a benchmark probe row with a
// paired bound (ROADMAP item 28).
func TestShmFetchAddLatencyVsTCP(t *testing.T) {
	requireShm(t)
	if testing.Short() {
		t.Skip("latency comparison is not meaningful under -short")
	}
	const iters = 3000
	measure := func(kind TransportKind) time.Duration {
		var elapsed time.Duration
		w, err := NewWorld(Config{NumPEs: 2, HeapBytes: 1 << 16, Transport: kind})
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
			if c.Rank() == 1 {
				// Warm the path, then time.
				for i := 0; i < 100; i++ {
					if _, err := c.FetchAdd64(0, addr, 1); err != nil {
						return err
					}
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := c.FetchAdd64(0, addr, 1); err != nil {
						return err
					}
				}
				elapsed = time.Since(start)
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed / iters
	}
	// Best of three each: the ratio is a property of the two paths, and a
	// single sample under -race on a loaded runner is not.
	best := func(kind TransportKind) time.Duration {
		return min(measure(kind), measure(kind), measure(kind))
	}
	shm, tcp := best(TransportShm), best(TransportTCP)
	t.Logf("blocking fetch-add: shm %v/op, tcp %v/op (%.0fx)", shm, tcp, float64(tcp)/float64(shm))
	if shm*10 > tcp {
		t.Errorf("shm fetch-add %v/op is not >= 10x faster than tcp %v/op", shm, tcp)
	}
}

// TestShmGeometryLimits covers segment-construction validation.
func TestShmGeometryLimits(t *testing.T) {
	requireShm(t)
	dir := t.TempDir()
	if _, err := createShmSegment(filepath.Join(dir, "a"), shmMaxPEs+1, 1<<12); err == nil {
		t.Error("NumPEs beyond header capacity accepted")
	}
	if _, err := createShmSegment(filepath.Join(dir, "b"), 2, WordSize); err == nil {
		t.Error("heap smaller than the reserved region accepted")
	}
	if _, err := createShmSegment(filepath.Join(dir, "c"), 2, 1<<12+3); err == nil {
		t.Error("non-word-multiple heap accepted")
	}
}
