package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Model-based interleaving test: a scheduler goroutine drives the owner
// (PE 0) and a thief (PE 1) in randomized lockstep through every queue
// operation, then checks the fundamental invariant against a reference
// model — every pushed task is obtained exactly once, either by an owner
// pop or a thief steal, and nothing else is ever produced — and, after
// every owner op, that completion slots no epoch record uses are zero.
// After every owner op and every steal claim it also checks the owner's
// cached views: SharedAvail against a fresh unpack of the stealval, and
// headSlot against ring.Slot(head).
//
// Unlike the free-running stress tests, lockstep scheduling explores
// adversarial interleavings deterministically per seed (e.g. a steal
// claim squeezed between SharedAvail and retire, acquires racing
// completions), and failures are replayable.

type modelOp int

const (
	opPush modelOp = iota
	opPop
	opRelease
	opAcquire
	opProgress
	opSteal
	// opCheck is never drawn at random: the harness runs it on the owner
	// after every steal, to check the owner's views against the claim.
	opCheck
)

// modelStep is one lockstep schedule entry: who acts (0 = owner, 1 =
// thief — the thief only steals) and which operation.
type modelStep struct {
	who int
	op  modelOp
}

// randomSchedule pre-generates a lockstep schedule.
func randomSchedule(seed int64, steps int) []modelStep {
	rng := rand.New(rand.NewSource(seed))
	schedule := make([]modelStep, steps)
	for i := range schedule {
		if rng.Intn(3) == 0 {
			schedule[i] = modelStep{1, opSteal}
		} else {
			schedule[i] = modelStep{0, modelOp(rng.Intn(int(opSteal)))}
		}
	}
	return schedule
}

func runModelSchedule(t *testing.T, opts Options, seed int64, steps int) (modelRun, error) {
	t.Helper()
	return runModelScheduleSteps(t, opts, seed, randomSchedule(seed, steps))
}

// modelRun is what a schedule exercised besides its exactly-once verdict.
type modelRun struct {
	// longestPlan is the longest steal plan of any epoch record the owner
	// held.
	longestPlan int
	// republished counts owner ops that published the very word
	// SharedAvail had cached, so the view after them was a cache hit.
	republished int
}

// runModelScheduleSteps drives the 2-PE lockstep harness through an
// explicit schedule.
func runModelScheduleSteps(t *testing.T, opts Options, seed int64, schedule []modelStep) (run modelRun, err error) {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20})
	if err != nil {
		return run, err
	}

	// Lockstep plumbing: turn[who] <- step; done <- result.
	turns := [2]chan modelOp{make(chan modelOp), make(chan modelOp)}
	done := make(chan error)

	pushed := make(map[uint64]bool)
	got := make(map[uint64]string)
	var next uint64

	runErr := make(chan error, 1)
	go func() {
		runErr <- w.Run(func(c *shmem.Ctx) error {
			q, err := NewQueue(c, opts)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			me := c.Rank()
			for op := range turns[me] {
				var oerr error
				cached, epoch := q.svWord, q.curEpoch
				switch op {
				case opPush:
					id := next
					if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(id)}); err != nil {
						if errors.Is(err, wsq.ErrFull) {
							oerr = nil // legal; model just skips
						} else {
							oerr = err
						}
					} else {
						pushed[id] = true
						next++
					}
				case opPop:
					d, ok, err := q.Pop()
					if err != nil {
						oerr = err
					} else if ok {
						args, perr := task.ParseArgs(d.Payload, 1)
						if perr != nil {
							oerr = perr
						} else if prev, dup := got[args[0]]; dup {
							oerr = fmt.Errorf("task %d obtained twice (pop after %s)", args[0], prev)
						} else {
							got[args[0]] = "pop"
						}
					}
				case opRelease:
					_, oerr = q.Release()
				case opAcquire:
					_, oerr = q.Acquire()
				case opProgress:
					oerr = q.Progress()
				case opSteal:
					tasks, out, err := q.Steal(0)
					if err != nil {
						oerr = err
					} else if out == wsq.Stolen {
						for _, d := range tasks {
							args, perr := task.ParseArgs(d.Payload, 1)
							if perr != nil {
								oerr = perr
								break
							}
							if prev, dup := got[args[0]]; dup {
								oerr = fmt.Errorf("task %d obtained twice (steal after %s)", args[0], prev)
								break
							}
							got[args[0]] = "steal"
						}
						// Completion must land before the owner's next
						// lockstep op so the model stays deterministic.
						if oerr == nil {
							oerr = c.Quiet()
						}
					}
				}
				if me == 0 && oerr == nil {
					if q.curEpoch != epoch && atomic.LoadUint64(q.stealval) == cached {
						run.republished++
					}
					var longest int
					longest, oerr = idleSlotsZero(q)
					run.longestPlan = max(run.longestPlan, longest)
					if oerr == nil {
						oerr = ownerViewsExact(q)
					}
				}
				done <- oerr
			}
			return c.Barrier()
		})
	}()

	fail := func(err error) (modelRun, error) {
		close(turns[0])
		close(turns[1])
		<-runErr
		return run, err
	}
	for i, s := range schedule {
		turns[s.who] <- s.op
		if err := <-done; err != nil {
			return fail(fmt.Errorf("seed %d step %d (%v by PE %d): %w", seed, i, s.op, s.who, err))
		}
		if s.op == opSteal {
			turns[0] <- opCheck
			if err := <-done; err != nil {
				return fail(fmt.Errorf("seed %d step %d (owner's view of the claim): %w", seed, i, err))
			}
		}
	}
	// Drain: the owner recovers everything that remains.
	for tries := 0; len(got) < len(pushed) && tries < 10*len(schedule)+100; tries++ {
		var op modelOp
		switch tries % 4 {
		case 0:
			op = opPop
		case 1:
			op = opAcquire
		case 2:
			op = opProgress
		default:
			op = opPop
		}
		turns[0] <- op
		if err := <-done; err != nil {
			return fail(fmt.Errorf("seed %d drain: %w", seed, err))
		}
	}
	close(turns[0])
	close(turns[1])
	if err := <-runErr; err != nil {
		return run, err
	}
	if len(got) != len(pushed) {
		return run, fmt.Errorf("seed %d: pushed %d tasks, obtained %d", seed, len(pushed), len(got))
	}
	for id := range pushed {
		if _, ok := got[id]; !ok {
			return run, fmt.Errorf("seed %d: task %d lost", seed, id)
		}
	}
	return run, nil
}

// ownerViewsExact checks, on the owner between its ops, the view it keeps
// instead of recomputing it per task: the availability SharedAvail
// returns, cached or not, is a fresh unpack of the stealval word. The
// buffer's own view, headSlot, is internal/wsq's (TestHeadSlotTracksHead).
func ownerViewsExact(q *Queue) error {
	w := atomic.LoadUint64(q.stealval)
	want := 0
	if v := q.format.Unpack(w); v.Valid {
		want = v.ITasks - wsq.StealOffset(v.ITasks, int(v.Asteals))
	}
	if got := q.SharedAvail(); got != want {
		return fmt.Errorf("SharedAvail = %d, word %#x holds %d", got, w, want)
	}
	return nil
}

// idleSlotsZero checks, on the owner between its ops, the invariant that
// lets startEpoch zero only the slots of its block's plan: every completion
// slot no live epoch record can use is zero. A parity no record holds is
// zero throughout — the records that drained out of it zeroed every slot
// their claims used — and a held parity is zero past the longest plan of
// the records holding it. It also reports the longest plan in use.
func idleSlotsZero(q *Queue) (longest int, err error) {
	for p := 0; p < MaxEpochs; p++ {
		inUse := 0
		for _, rec := range q.recs {
			if rec.parity == p {
				inUse = max(inUse, wsq.PlanLen(rec.itasks))
			}
		}
		longest = max(longest, inUse)
		for b := inUse; b < wsq.MaxPlanLen; b++ {
			if w := atomic.LoadUint64(q.completionSlot(p, b)); w != 0 {
				return longest, fmt.Errorf("completion slot %d of parity %d holds %d with no epoch record using it (records %+v)", b, p, w, q.recs)
			}
		}
	}
	return longest, nil
}

func TestModelInterleavingsV2(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		if _, err := runModelSchedule(t, Options{Capacity: 64, Epochs: true, Damping: true}, seed, 300); err != nil {
			t.Fatal(err)
		}
	}
}

// Without epochs an acquire that finds both portions empty publishes the
// word it retired, so the schedules include republished words the cache
// holds (with epochs the parity flips; TestSharedAvailRepublishedWord).
func TestModelInterleavingsV1(t *testing.T) {
	var republished int
	for seed := int64(1); seed <= 20; seed++ {
		run, err := runModelSchedule(t, Options{Capacity: 64, Epochs: false}, seed, 250)
		if err != nil {
			t.Fatal(err)
		}
		republished += run.republished
	}
	if republished == 0 {
		t.Fatal("no owner op republished the word SharedAvail had cached")
	}
}

// TestModelInterleavingsLongPlan runs the schedule over blocks whose plans
// reach deep into the completion arrays: a steal-half plan needs 12
// attempts only from 2^11 tasks up, so the owner first pushes 4,200 tasks
// and releases half of them as one block before the random schedule
// starts claiming, releasing and acquiring around it.
func TestModelInterleavingsLongPlan(t *testing.T) {
	const pushes, wantPlan = 4200, 12
	for seed := int64(1); seed <= 10; seed++ {
		schedule := make([]modelStep, 0, pushes+1+300)
		for range pushes {
			schedule = append(schedule, modelStep{0, opPush})
		}
		schedule = append(schedule, modelStep{0, opRelease})
		schedule = append(schedule, randomSchedule(seed, 300)...)
		run, err := runModelScheduleSteps(t, Options{Capacity: 8192, Epochs: true, Damping: true}, seed, schedule)
		if err != nil {
			t.Fatal(err)
		}
		if run.longestPlan < wantPlan {
			t.Fatalf("seed %d: longest plan %d attempts, want >= %d", seed, run.longestPlan, wantPlan)
		}
	}
}

func TestModelInterleavingsFused(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if _, err := runModelSchedule(t, Options{Capacity: 64, Epochs: true, Fused: true}, seed, 300); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModelInterleavingsTinyCapacity(t *testing.T) {
	// Capacity 4 forces constant wraps and ErrFull paths.
	for seed := int64(1); seed <= 20; seed++ {
		if _, err := runModelSchedule(t, Options{Capacity: 4, Epochs: true}, seed, 300); err != nil {
			t.Fatal(err)
		}
	}
}
