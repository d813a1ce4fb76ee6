//go:build linux && !race

package shmem

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"sws/internal/trace"
)

// residentBytes reads this process's resident set from /proc/self/statm,
// skipping the test where it cannot.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	f := strings.Fields(string(b))
	if err != nil || len(f) < 2 {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Skipf("unreadable /proc/self/statm %q: %v", b, err)
	}
	return pages * int64(os.Getpagesize())
}

// A heap commits what its PEs touch, not what HeapBytes reserves. The
// throwaway world comes first so that heap memory a later world could be
// handed is memory the process has used before: Go zeroes such memory when
// it reallocates it, so Go-slice heaps would commit all 4 × 64 MB here.
func TestHeapCommitsOnTouch(t *testing.T) {
	const pes, heap, touched = 4, 64 << 20, 1 << 20
	for _, cfg := range []Config{
		{NumPEs: pes, HeapBytes: heap},
		{NumPEs: pes, HeapBytes: heap, Transport: TransportSim, Sim: SimOptions{Seed: 1, MaxVirtualTime: 2 * time.Second}},
	} {
		t.Run(cfg.Transport.String(), func(t *testing.T) {
			residentBytes(t)
			run(t, cfg, func(c *Ctx) error { return c.Barrier() })
			runtime.GC()
			debug.FreeOSMemory()

			before := residentBytes(t)
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *Ctx) error {
				own, err := c.OwnBytes(c.MustAlloc(touched), touched)
				if err != nil {
					return err
				}
				for i := range own {
					own[i] = byte(i)
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			grew := residentBytes(t) - before
			runtime.KeepAlive(w)
			if grew >= 32<<20 {
				t.Errorf("resident memory grew %d MB for %d PEs touching 1 MB of %d MB heaps each; want < 32 MB",
					grew>>20, pes, heap>>20)
			}
		})
	}
}

// mappedAt returns those of addrs that lie inside a region of
// /proc/self/maps, skipping the test where it cannot read it.
func mappedAt(t *testing.T, addrs []uintptr) []uintptr {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	var in []uintptr
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lo, hi, _ := strings.Cut(strings.Fields(sc.Text())[0], "-")
		l, err1 := strconv.ParseUint(lo, 16, 64)
		h, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable /proc/self/maps line %q", sc.Text())
		}
		for _, a := range addrs {
			if uint64(a) >= l && uint64(a) < h {
				in = append(in, a)
			}
		}
	}
	return in
}

// A world nothing references any more gives its mappings back, run or not.
// The mappings are found by base address rather than by region size: the
// kernel merges adjacent anonymous mappings of equal flags, so several
// worlds' mappings can show as one region. A finalizer never registered, or
// one that a reference cycle through its owner keeps from running, leaves a
// base mapped. A shm world's heaps are its segment, which Run unmaps, and
// its anonymous mapping holds its rings alone; the segment of a shm world
// never run is unmapped once the world is dropped, like that mapping (the
// file itself is unlinked at creation).
func TestDroppedWorldReleasesHeap(t *testing.T) {
	const worlds = 8
	for _, kind := range []TransportKind{TransportLocal, TransportShm} {
		t.Run(kind.String(), func(t *testing.T) {
			var ws []*World
			var bases, segs []uintptr
			for i := 0; i < worlds; i++ {
				w, err := NewWorld(Config{NumPEs: 3, HeapBytes: 5<<20 + 64, Transport: kind})
				if err != nil {
					t.Fatal(err)
				}
				ws = append(ws, w)
				bases = append(bases, uintptr(unsafe.Pointer(&w.heaps.data[0])))
				if i%2 != 0 {
					if kind == TransportShm {
						segs = append(segs, uintptr(unsafe.Pointer(&w.transport.(*directTransport).seg.data[0])))
					}
					continue
				}
				body := func(c *Ctx) error {
					words, err := c.OwnWords(c.MustAlloc(WordSize), 1)
					if err == nil {
						words[0] = uint64(c.Rank())
					}
					return err
				}
				if err := w.Run(body); err != nil {
					t.Fatal(err)
				}
			}
			if in := mappedAt(t, bases); len(in) != worlds {
				t.Fatalf("%d of %d live worlds' mappings are mapped", len(in), worlds)
			}
			if in := mappedAt(t, segs); len(in) != len(segs) {
				t.Fatalf("%d of %d live unrun worlds' segments are mapped", len(in), len(segs))
			}
			runtime.KeepAlive(ws)
			ws = nil
			if left := awaitUnmapped(t, bases); len(left) > 0 {
				t.Errorf("%d of %d dropped worlds still map their heaps (bases %#x)", len(left), worlds, left)
			}
			if left := awaitUnmapped(t, segs); len(left) > 0 {
				t.Errorf("%d of %d dropped unrun shm worlds still map their segments (bases %#x)", len(left), len(segs), left)
			}
		})
	}
}

// awaitUnmapped collects garbage until no base is mapped, for up to half a
// second, and returns the bases still mapped.
func awaitUnmapped(t *testing.T, bases []uintptr) []uintptr {
	t.Helper()
	left := mappedAt(t, bases)
	for i := 0; i < 50 && len(left) > 0; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		left = mappedAt(t, bases)
	}
	return left
}

// A world's rings lie in its mapping and commit on touch too: 64 PEs' rings
// reserve 12 MB and cost Go no allocation. As Go slices, the rings of a
// world built after another had freed its own were 64 × 256 KB that Go
// zeroed, so resident memory grew 16 MB and Go allocated 16 MB here.
func TestRingsCommitOnTouch(t *testing.T) {
	cfg := Config{NumPEs: 64, HeapBytes: 64 << 10}
	residentBytes(t)
	run(t, cfg, func(c *Ctx) error { return c.Barrier() })
	runtime.GC()
	debug.FreeOSMemory()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, allocBefore := residentBytes(t), ms.TotalAlloc
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - allocBefore
	if alloc >= 1<<20 {
		t.Errorf("NewWorld allocated %d KB of Go memory for %d PEs; want < 1 MB", alloc>>10, cfg.NumPEs)
	}
	if err := w.Run(func(c *Ctx) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	grew := residentBytes(t) - before
	runtime.KeepAlive(w)
	if grew >= 4<<20 {
		t.Errorf("resident memory grew %d MB for a %d-PE world running one barrier; want < 4 MB", grew>>20, cfg.NumPEs)
	}
	t.Logf("%d PEs: NewWorld allocated %d KB of Go memory; resident memory grew %d KB", cfg.NumPEs, alloc>>10, grew>>10)
}

// A ring held past its World keeps the world's mapping, so it never reads
// unmapped memory, and lets it go once dropped itself. The world is gone
// when its PE state's finalizer has run (nothing but the World and its
// Ctxs points to a peState).
func TestRingOutlivesWorld(t *testing.T) {
	ring, base, gone := ringOfDroppedWorld(t)
	for i := 0; i < 50 && !gone.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !gone.Load() {
		t.Fatal("the dropped world was never collected")
	}
	runtime.GC()
	if len(mappedAt(t, []uintptr{base})) == 0 {
		t.Fatal("the world's mapping left while one of its rings is held")
	}
	evs := ring.Snapshot(2, "held").Events
	if n := len(evs); n == 0 || evs[n-1].Kind != trace.JobStart || evs[n-1].A != 7 || evs[n-1].PE != 1 {
		t.Fatalf("held ring's events %v; want the recorded job-start 7 of PE 1 last", evs)
	}
	// ring is not used past this point, so nothing holds the mapping now.
	if left := awaitUnmapped(t, []uintptr{base}); len(left) > 0 {
		t.Errorf("the world's mapping %#x stays mapped after its last ring was dropped", base)
	}
}

// ringOfDroppedWorld runs a 2-PE world, records an event on PE 1's ring and
// returns that ring, the world's mapping base, and a flag set once the
// world has been collected.
func ringOfDroppedWorld(t *testing.T) (*trace.Flight, uintptr, *atomic.Bool) {
	w, err := NewWorld(Config{NumPEs: 2, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Ctx) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	ring := w.Ring(1)
	ring.Record(trace.JobStart, 7, 0, 0)
	gone := new(atomic.Bool)
	runtime.SetFinalizer(w.pes[1], func(*peState) { gone.Store(true) })
	return ring, uintptr(unsafe.Pointer(&w.heaps.data[0])), gone
}

// A world may reserve more heap than the machine has memory: the mapping
// charges nothing up front, and a page commits at its first touch. Skipped
// where the kernel never overcommits (vm.overcommit_memory = 2) or an
// address-space limit is below the reservation.
func TestHeapReservationExceedsRAM(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("needs a 64-bit address space")
	}
	if mode, err := os.ReadFile("/proc/sys/vm/overcommit_memory"); err != nil || strings.TrimSpace(string(mode)) == "2" {
		t.Skipf("overcommit_memory %q (%v): reservations are charged", mode, err)
	}
	info, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		t.Skipf("no /proc/meminfo: %v", err)
	}
	var memKB int64
	for _, line := range strings.Split(string(info), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
			memKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	if memKB <= 0 {
		t.Skip("no MemTotal in /proc/meminfo")
	}
	const pes = 4
	reserve := 2 * memKB << 10
	var as syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_AS, &as); err == nil && as.Cur < uint64(reserve) {
		t.Skipf("address-space limit %d below a %d-byte reservation", as.Cur, reserve)
	}
	w, err := NewWorld(Config{NumPEs: pes, HeapBytes: int(reserve / pes)})
	if err != nil {
		t.Fatalf("%d PEs x %d MB (twice MemTotal): %v", pes, reserve/pes>>20, err)
	}
	err = w.Run(func(c *Ctx) error {
		words, err := c.OwnWords(c.MustAlloc(WordSize), 1)
		if err != nil {
			return err
		}
		words[0] = 1
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
