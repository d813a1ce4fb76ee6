package sdc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// Model-based interleaving test for the SDC baseline, mirroring the one
// in internal/core: randomized lockstep schedules of owner and thief
// operations, checked against the no-loss/no-duplication invariant.

type modelOp int

const (
	opPush modelOp = iota
	opPop
	opRelease
	opAcquire
	opProgress
	opSteal
	numModelOps
)

// runModelSchedule runs `lead` owner pushes, then `steps` random steps.
func runModelSchedule(t *testing.T, opts Options, seed int64, lead, steps int) error {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	type step struct {
		who int
		op  modelOp
	}
	schedule := make([]step, lead, lead+steps)
	for i := range schedule {
		schedule[i] = step{0, opPush}
	}
	for range steps {
		if rng.Intn(3) == 0 {
			schedule = append(schedule, step{1, opSteal})
		} else {
			schedule = append(schedule, step{0, modelOp(rng.Intn(int(numModelOps - 1)))})
		}
	}

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
				switch op {
				case opPush:
					id := next
					if err := q.Push(task.Desc{Handle: 1, Payload: task.Args(id)}); err != nil {
						if !errors.Is(err, wsq.ErrFull) {
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
						if oerr == nil {
							oerr = c.Quiet()
						}
					}
				}
				done <- oerr
			}
			return c.Barrier()
		})
	}()

	fail := func(err error) error {
		close(turns[0])
		close(turns[1])
		<-runErr
		return err
	}
	for i, s := range schedule {
		turns[s.who] <- s.op
		if err := <-done; err != nil {
			return fail(fmt.Errorf("seed %d step %d (%v by PE %d): %w", seed, i, s.op, s.who, err))
		}
	}
	for tries := 0; len(got) < len(pushed) && tries < 10*steps; tries++ {
		var op modelOp
		switch tries % 4 {
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
		return err
	}
	if len(got) != len(pushed) {
		return fmt.Errorf("seed %d: pushed %d tasks, obtained %d", seed, len(pushed), len(got))
	}
	return nil
}

func TestModelInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		if err := runModelSchedule(t, Options{Capacity: 64}, seed, 0, 300); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModelInterleavingsTinyCapacity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if err := runModelSchedule(t, Options{Capacity: 4}, seed, 0, 300); err != nil {
			t.Fatal(err)
		}
	}
}

// TestModelInterleavingsLargeBlocks: 600 tasks pushed up front make the
// first shared portions hundreds of tasks long, so steals copy large
// blocks while the owner releases and acquires around them.
func TestModelInterleavingsLargeBlocks(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		if err := runModelSchedule(t, Options{Capacity: 1024}, seed, 600, 250); err != nil {
			t.Fatal(err)
		}
	}
}
