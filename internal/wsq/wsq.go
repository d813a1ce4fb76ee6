// Package wsq is what the two work-stealing task queues in this repository
// (the SDC baseline in internal/sdc and the SWS queue in internal/core)
// share: the contract the pool runtime drives either protocol through, the
// steal-half arithmetic, and the split buffer itself (Slots: task slots,
// owner push and pop, ErrFull, the thief's block copy and the one journal
// record of each steal attempt). The protocols
// differ only in how a thief discovers and claims a block, so the
// benchmarks' protocol flag swaps exactly what the paper's evaluation
// compares.
package wsq

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/task"
)

// Outcome classifies a steal attempt.
type Outcome int

const (
	// Stolen: tasks were claimed and copied.
	Stolen Outcome = iota
	// Empty: the victim advertised no stealable work.
	Empty
	// Disabled: the victim's queue was locked/disabled (SWS: invalid
	// stealval; SDC: lock contention exceeded the abort threshold).
	Disabled
)

var outcomeNames = [...]string{"stolen", "empty", "disabled"}

func (o Outcome) String() string {
	if o >= 0 && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Queue is one PE's view of its own task queue plus the ability to steal
// from any peer's symmetric queue.
//
// # Owner-serialization contract
//
// Owner methods (Push, PushSlots, Pop, ReleaseDue, Release, Acquire,
// Progress, and the read-side LocalCount/SharedAvail) must be serialized: at
// most one goroutine may be inside an owner method at a time, and successive
// calls must be ordered by happens-before edges. In the classic
// one-goroutine-per-PE runtime this holds trivially; a multi-worker PE must
// designate one owner worker to perform all owner ops (the implementations
// keep owner-private state — split points, epoch counters, steal plans — in
// plain fields on the strength of this contract). Steal is initiator-side,
// touches only the victim's symmetric heap through one-sided atomics, and
// may be called concurrently with the victim's owner ops — that asymmetry is
// the whole point of the protocol. Callers can enforce (and document
// violations of) the contract with OwnerGuard, around spans of owner work
// rather than single ops.
type Queue interface {
	// Push enqueues a task at the head of the local portion, or fails
	// with ErrFull when no slot is free after reclaiming completed steals.
	Push(d task.Desc) error
	// PushSlots is n Pushes of tasks still in the queue's slot encoding,
	// enc's first the oldest, made with one copy per contiguous span of
	// the ring. It reports false and lands none when the ring lacks room
	// for all n. The caller has checked each slot's payload length
	// (task.Codec.Fits).
	PushSlots(enc []byte, n int) (bool, error)
	// Pop dequeues the newest task from the local portion (LIFO). It
	// returns ok=false when the local portion is empty — callers then
	// Acquire or steal. The payload is valid until the next Pop: the
	// queue decodes into one reused buffer so the owner's pop → execute
	// cycle allocates nothing; a caller that keeps the descriptor longer
	// (parks it in another queue) copies the payload.
	Pop() (d task.Desc, ok bool, err error)
	// ReleaseDue reports whether a Release would expose work now: at least
	// two local tasks and nothing left in the shared portion. It is the
	// per-task half of Release — one read of the owner's own shared-portion
	// word — so a runtime that calls it every scheduler pass need only call
	// (and time) Release when it says yes.
	ReleaseDue() bool
	// Release moves roughly half of the local tasks to the shared
	// portion. It reports the number of tasks exposed (0 if no release
	// was due, or the queue had to defer it).
	Release() (int, error)
	// Acquire moves roughly half of the shared, unclaimed tasks back to
	// the local portion, reporting how many moved.
	Acquire() (int, error)
	// Progress reclaims queue space occupied by completed steals. Cheap;
	// called periodically by the runtime.
	Progress() error
	// Steal attempts to steal from victim's queue, returning the stolen
	// descriptors on success, and journals the attempt once as it ends.
	Steal(victim int) ([]task.Desc, Outcome, error)
	// StealElapsed is how long the last Steal took, on Ctx.Now.
	StealElapsed() time.Duration
	// LocalCount returns the number of tasks in the local portion.
	LocalCount() int
	// SharedAvail returns the owner's view of unclaimed shared tasks.
	SharedAvail() int
}

// NewPopBuf returns the n-byte buffer a queue reuses for Pop's payload,
// alone on its cache lines. The owner writes it on every pop, and the task
// body may write it again (pool.Func), so it is a per-task word — and Go
// packs small objects of one size into one span, so two PEs' plain
// make([]byte, 24) buffers can share a line (goroutine timing at
// construction decides; UTS T1 on 2 PEs then ran 70 ms per job, not 50).
// A multiple of 128 bytes is its own, 128-aligned, size class.
func NewPopBuf(n int) []byte {
	return make([]byte, (n+127)&^127)[:n:n]
}

// OwnerOp names a span of owner work for OwnerGuard: a whole job, or one
// spawn from seeding code. The zero value means "none in flight".
type OwnerOp uint32

const (
	OwnerRun OwnerOp = iota + 1
	OwnerAdd
	OwnerSpawnOn
)

var ownerOpNames = [...]string{"none", "RunJob", "Add", "SpawnOn"}

func (o OwnerOp) String() string {
	if int(o) < len(ownerOpNames) {
		return ownerOpNames[o]
	}
	return fmt.Sprintf("OwnerOp(%d)", uint32(o))
}

// OwnerGuard detects violations of the owner-serialization contract: two
// goroutines doing a PE's owner work at once. Bracket each span of it:
//
//	guard.Enter(wsq.OwnerRun)
//	defer guard.Exit()
//
// The span is as wide as the caller can make it — the pool enters once per
// job and once per seeding spawn, never per queue op — so the guard costs
// nothing per task while any foreign entry during the span is caught, not
// only one that happens to overlap a single op. A violation panics with
// both names — a scheduler bug, never a recoverable condition, since an
// interleaved owner op can corrupt the queue's owner-private state
// silently. The guard is one word holding the span in flight: a CAS to
// enter, a store to exit. The zero value is ready to use.
type OwnerGuard struct {
	cur atomic.Uint32
}

// Enter marks the calling goroutine as the active owner; it panics if
// another owner span is already in flight.
func (g *OwnerGuard) Enter(op OwnerOp) {
	if !g.cur.CompareAndSwap(0, uint32(op)) {
		panic(fmt.Sprintf("wsq: owner-serialization violated: %v raced with %v (a PE's owner work belongs to one goroutine at a time)", op, OwnerOp(g.cur.Load())))
	}
}

// Exit releases the guard taken by Enter.
func (g *OwnerGuard) Exit() { g.cur.Store(0) }

// A steal claims half of what is left of a shared block, the paper's
// policy throughout ("work stealing systems have been shown to perform
// best by stealing half of the available work", §2). The volume defines a
// deterministic *plan* over a block of n tasks: attempt i (0-based) claims
// StealHalf(n, i) tasks starting StealOffset(n, i) tasks past the block's
// tail. Determinism is what lets an SWS thief derive its claim purely from
// the fetched attempt counter.

// StealHalf returns the size of steal attempt i (0-based) against a block
// that initially held n tasks — max(1, remaining/2) — or 0 when the plan
// is exhausted. n=150 yields {75,37,19,9,5,2,1,1,1} (§4's example).
func StealHalf(n, i int) int {
	r := n - StealOffset(n, i)
	if r <= 0 {
		return 0
	}
	return half(r)
}

// StealOffset returns the displacement from the block's tail at which
// attempt i begins: the total volume of attempts 0..i-1.
func StealOffset(n, i int) int {
	r := n
	for ; i > 0 && r > 0; i-- {
		r -= half(r)
	}
	return n - r
}

// PlanLen returns the number of attempts that exhaust a block of n tasks
// (9 for n=150).
func PlanLen(n int) int {
	count := 0
	for r := n; r > 0; r -= half(r) {
		count++
	}
	return count
}

// Offsets appends the whole plan of a block of n tasks to dst —
// StealOffset(n, i) for i = 0..PlanLen(n), so the last entry is n — for an
// owner that reads its own block's plan once per task and computes it once
// per block.
func Offsets(dst []int, n int) []int {
	for i, k := 0, PlanLen(n); i <= k; i++ {
		dst = append(dst, StealOffset(n, i))
	}
	return dst
}

// MaxPlanLen bounds PlanLen for any block size the queues can advertise:
// itasks is at most 19 bits, and a block of 2^19-1 tasks is exhausted in
// 20 attempts. It sizes the completion arrays, one slot per attempt.
const MaxPlanLen = 32

func half(r int) int { return max(r/2, 1) }
