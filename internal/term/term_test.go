package term

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sws/internal/shmem"
)

func runWorld(t *testing.T, npes int, body func(*shmem.Ctx) error) {
	t.Helper()
	w, err := shmem.NewWorld(shmem.Config{NumPEs: npes})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// With no tasks ever created, detection completes after rank 0's two clean
// passes and every PE observes it.
func TestImmediateTermination(t *testing.T) {
	runWorld(t, 4, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			done, err := d.Check()
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("PE %d never terminated", c.Rank())
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
}

// Termination must not be declared while a task is outstanding.
func TestNoFalseTermination(t *testing.T) {
	var executedAt atomic.Int64 // unix nanos when the task was executed
	runWorld(t, 3, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		// The task exists before detection starts, as a job's roots do: a
		// barrier releases its members one by one, so work first spawned
		// after it could be missed by peers that are already checking.
		if c.Rank() == 1 {
			d.Publish(1, 0)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			// Hold the task in flight, then execute it.
			time.Sleep(20 * time.Millisecond)
			executedAt.Store(time.Now().UnixNano())
			d.Publish(0, 1)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			done, err := d.Check()
			if err != nil {
				return err
			}
			if done {
				at := executedAt.Load()
				if at == 0 {
					return fmt.Errorf("PE %d saw termination before the task executed", c.Rank())
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("PE %d never terminated", c.Rank())
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
}

// Counters spread across PEs (spawned on one, executed on another, as
// after a steal) must still sum clean.
func TestCrossPECounting(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// PE 0 "spawned" 5 tasks; PE 1 "executed" them (stolen work).
		if c.Rank() == 0 {
			d.Publish(5, 0)
		} else {
			d.Publish(0, 5)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			done, err := d.Check()
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("PE %d never terminated", c.Rank())
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
}

// Over-execution looks like a torn snapshot and must never be declared
// terminated (nor treated as fatal: counts can legitimately look inverted
// while work is in flight).
func TestOverExecutionNotTerminated(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		d.Publish(0, 2)
		for i := 0; i < 5; i++ {
			done, cerr := d.Check()
			if cerr != nil {
				return cerr
			}
			if done {
				return fmt.Errorf("terminated with executed > spawned")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounts(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		d.Publish(3, 0)
		d.Publish(0, 2)
		s, e := d.Counts()
		if s != 3 || e != 2 {
			return fmt.Errorf("Counts = %d,%d want 3,2", s, e)
		}
		return nil
	})
}

// A detector serves a sequence of job epochs: StartJob rearms the
// verdict state between jobs, counters stay monotonic, and each epoch
// detects its own quiescence — including epochs with work after an
// empty one.
func TestMultiJobEpochs(t *testing.T) {
	runWorld(t, 4, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		waitDone := func(job int) error {
			deadline := time.Now().Add(5 * time.Second)
			for {
				done, err := d.Check()
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("PE %d: job %d never terminated", c.Rank(), job)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		for job := 0; job < 5; job++ {
			// Seed before the epoch opens (RunJob's contract): odd jobs
			// spawn (job+rank) tasks per PE, even jobs are empty. Both
			// must quiesce.
			n := 0
			if job%2 == 1 {
				n = job + c.Rank()
				d.Publish(n, 0)
			}
			if err := d.StartJob(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if n > 0 {
				d.Publish(0, n)
			}
			if err := waitDone(job); err != nil {
				return err
			}
			if d.Lost != 0 {
				return fmt.Errorf("job %d: lost %d on a fault-free run", job, d.Lost)
			}
			// The barrier between jobs orders every PE's flag reset after
			// the previous verdict is fully read.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		sp, ex := d.Counts()
		if sp != ex {
			return fmt.Errorf("counters unbalanced after jobs: %d/%d", sp, ex)
		}
		return nil
	})
}
