package wsq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"sws/internal/shmem"
	"sws/internal/task"
)

// The paper's worked example (§4): 150 initial tasks yield the steal
// sequence {75,37,19,9,5,2,1,1,1}.
func TestStealHalfPaperExample(t *testing.T) {
	want := []int{75, 37, 19, 9, 5, 2, 1, 1, 1}
	for i, w := range want {
		if got := StealHalf(150, i); got != w {
			t.Errorf("StealHalf(150, %d) = %d, want %d", i, got, w)
		}
	}
	if got := StealHalf(150, len(want)); got != 0 {
		t.Errorf("StealHalf(150, 9) = %d, want 0 (exhausted)", got)
	}
	if got := PlanLen(150); got != 9 {
		t.Errorf("PlanLen(150) = %d, want 9", got)
	}
}

// The paper's example continues: after 2 steals the next block starts at
// offset 75+37=112 and takes 19 tasks.
func TestStealOffsetPaperExample(t *testing.T) {
	if got := StealOffset(150, 2); got != 112 {
		t.Errorf("StealOffset(150, 2) = %d, want 112", got)
	}
	if got := StealOffset(150, 0); got != 0 {
		t.Errorf("StealOffset(150, 0) = %d, want 0", got)
	}
	if got := StealOffset(150, 9); got != 150 {
		t.Errorf("StealOffset(150, 9) = %d, want 150", got)
	}
}

func TestStealHalfEdges(t *testing.T) {
	if got := StealHalf(0, 0); got != 0 {
		t.Errorf("StealHalf(0,0) = %d", got)
	}
	if got := StealHalf(1, 0); got != 1 {
		t.Errorf("StealHalf(1,0) = %d, want 1", got)
	}
	if got := StealHalf(2, 0); got != 1 {
		t.Errorf("StealHalf(2,0) = %d, want 1", got)
	}
	if got := StealHalf(2, 1); got != 1 {
		t.Errorf("StealHalf(2,1) = %d, want 1", got)
	}
	if got := PlanLen(0); got != 0 {
		t.Errorf("PlanLen(0) = %d", got)
	}
	if got := PlanLen(1); got != 1 {
		t.Errorf("PlanLen(1) = %d", got)
	}
}

// Property: the steal plan partitions the block exactly — sizes are
// positive, sum to n, and offsets telescope.
func TestStealPlanPartitionProperty(t *testing.T) {
	f := func(n16 uint16) bool {
		n := int(n16)
		total := 0
		for i := 0; ; i++ {
			k := StealHalf(n, i)
			if k == 0 {
				return total == n && i == PlanLen(n) && StealOffset(n, i) == n
			}
			if k < 0 || StealOffset(n, i) != total {
				return false
			}
			total += k
			if i > MaxPlanLen {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the owner's plan table is the same partition — Offsets(n)
// holds StealOffset(n, i) for every attempt, its steps are the steal-half
// volumes, and it ends at n after PlanLen(n) attempts.
func TestPolicyPartitionProperty(t *testing.T) {
	buf := make([]int, 0, MaxPlanLen+1)
	f := func(n16 uint16) bool {
		n := int(n16)
		buf = Offsets(buf[:0], n)
		if len(buf) != PlanLen(n)+1 || buf[0] != 0 || buf[len(buf)-1] != n {
			return false
		}
		for i := 0; i+1 < len(buf); i++ {
			if buf[i] != StealOffset(n, i) || buf[i+1]-buf[i] != StealHalf(n, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: each steal takes at most half the remainder (rounded down,
// except the final single task), so the plan is geometric.
func TestStealHalfNeverExceedsHalf(t *testing.T) {
	f := func(n16 uint16) bool {
		n := int(n16)
		r := n
		for i := 0; r > 0; i++ {
			k := StealHalf(n, i)
			if r > 1 && k > r/2 {
				return false
			}
			if r == 1 && k != 1 {
				return false
			}
			r -= k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// MaxPlanLen must bound PlanLen for the largest advertisable block
// (19-bit itasks).
func TestMaxPlanLenBound(t *testing.T) {
	if got := PlanLen(1 << 19); got > MaxPlanLen {
		t.Errorf("PlanLen(2^19) = %d exceeds MaxPlanLen %d", got, MaxPlanLen)
	}
	// And is tight-ish: within 2x.
	if got := PlanLen(1 << 19); got < MaxPlanLen/2 {
		t.Logf("PlanLen(2^19) = %d (bound %d)", got, MaxPlanLen)
	}
}

func TestOutcomeString(t *testing.T) {
	if Stolen.String() != "stolen" || Empty.String() != "empty" || Disabled.String() != "disabled" {
		t.Error("Outcome strings wrong")
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome has empty string")
	}
}

// The guard brackets spans of owner work: entering one inside another (what
// a second goroutine entering concurrently looks like) panics naming both,
// and a released guard admits the next span.
func TestOwnerGuardViolationNamesBothOps(t *testing.T) {
	var g OwnerGuard
	g.Enter(OwnerAdd)
	g.Exit()
	g.Enter(OwnerRun)
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"owner-serialization violated", "SpawnOn raced with RunJob"} {
			if !strings.Contains(msg, want) {
				t.Errorf("violation panic %q does not contain %q", msg, want)
			}
		}
	}()
	g.Enter(OwnerSpawnOn)
	t.Error("second Enter did not panic")
}

// TestPopBufOwnsItsCacheLines: a pop buffer is written per task, so two of
// them — two PEs' — must never share a cache line, whatever the allocator
// hands out next to each other: each starts its own 128-byte block.
func TestPopBufOwnsItsCacheLines(t *testing.T) {
	for _, n := range []int{0, 1, 24, 64, 128, 200} {
		for i := 0; i < 8; i++ {
			b := NewPopBuf(n)
			if len(b) != n || cap(b) != n {
				t.Fatalf("NewPopBuf(%d): len %d cap %d", n, len(b), cap(b))
			}
			if n > 0 && uintptr(unsafe.Pointer(&b[0]))%128 != 0 {
				t.Errorf("NewPopBuf(%d) at %p is not 128-byte aligned", n, &b[0])
			}
		}
	}
}

// reclaimAll stands in for a protocol whose every claimed block has been
// copied: its Progress reclaims the whole shared range.
type reclaimAll struct{ s *Slots }

func (r reclaimAll) Progress() error { r.s.RTail = r.s.Split; return nil }

// TestHeadSlotTracksHead: the owner steps headSlot with head instead of
// dividing, so after any run of pushes, pops, slot runs, releases and
// reclaims on a ring that wraps constantly, headSlot is ring.Slot(head).
func TestHeadSlotTracksHead(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		var s Slots
		if err := s.Init(c, 5, 8, reclaimAll{&s}); err != nil {
			return err
		}
		if err := s.AllocSlots(); err != nil {
			return err
		}
		enc := make([]byte, 3*s.codec.SlotSize())
		rng := rand.New(rand.NewSource(1))
		for i := range 2000 {
			switch rng.Intn(5) {
			case 0, 1:
				if err := s.Push(task.Desc{Handle: 1}); err != nil && s.free() != 0 {
					return err
				}
			case 2:
				if _, err := s.PushSlots(enc, 1+rng.Intn(3)); err != nil {
					return err
				}
			case 3:
				if _, _, err := s.Pop(); err != nil {
					return err
				}
			case 4:
				s.Split += uint64(s.LocalCount() / 2) // a release
			}
			if s.headSlot != s.ring.Slot(s.head) {
				return fmt.Errorf("step %d: headSlot %d, head %d is slot %d", i, s.headSlot, s.head, s.ring.Slot(s.head))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
