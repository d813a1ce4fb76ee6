package term

import (
	"errors"
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

// A pass entry carries each PE's state word: with counts balanced and
// unchanged, a word that moves between two passes (a transition the
// leader's process has not mirrored yet) is no verdict, and the next two
// equal passes are one.
func TestStateWordInThePass(t *testing.T) {
	var move, moved atomic.Bool
	runWorld(t, 2, func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			own, err := c.OwnWords(0, len(shmem.Line{}))
			if err != nil {
				return err
			}
			for !move.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			atomic.StoreUint64(&own[shmem.WordState], uint64(shmem.PeerDraining))
			moved.Store(true)
			return awaitVerdict(c, d)
		}
		if done, err := d.Check(); done || err != nil {
			return fmt.Errorf("first pass: done=%v, %v", done, err)
		}
		move.Store(true)
		for !moved.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		if done, err := d.Check(); done || err != nil {
			return fmt.Errorf("pass over a moved state word: done=%v, %v", done, err)
		}
		if done, err := d.Check(); !done || err != nil {
			return fmt.Errorf("second equal pass: done=%v, %v", done, err)
		}
		return nil
	})
}

// awaitVerdict polls Check until this PE sees the verdict. A PE crashed
// under the test returns nil once its own Ctx says so; any other world
// failure is returned.
func awaitVerdict(c *shmem.Ctx, d *Detector) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Err(); err != nil {
			if errors.Is(err, shmem.ErrPEKilled) {
				return nil
			}
			return err
		}
		done, err := d.Check()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("PE %d never saw the verdict", c.Rank())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// killPeer crash-injects rank from inside a body and waits until the
// detector has declared it dead.
func killPeer(c *shmem.Ctx, w *shmem.World, rank int) error {
	w.Kill(rank)
	for deadline := time.Now().Add(5 * time.Second); c.Liveness().Alive(rank); {
		if time.Now().After(deadline) {
			return fmt.Errorf("PE %d never declared dead", rank)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// A termination pass costs one blocking op per live peer, with or without
// a dead one: the leader's own words are a local read, and a degraded pass
// reads a peer's activity word in the same Get as its counters.
func TestTermPassOneGetPerLivePeer(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, DeadAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil || c.Rank() != 0 {
			return err
		}
		pass := func() (uint64, error) {
			before := c.Counters().Snapshot()
			done, err := d.Check()
			if done {
				return 0, fmt.Errorf("a first pass reached a verdict")
			}
			return c.Counters().Snapshot().Sub(before).Blocking(), err
		}
		if n, err := pass(); err != nil || n != 3 {
			return fmt.Errorf("fault-free pass: %d blocking ops (%v), want 3", n, err)
		}
		if err := killPeer(c, w, 3); err != nil {
			return err
		}
		if n, err := pass(); err != nil || n != 2 {
			return fmt.Errorf("degraded pass: %d blocking ops (%v), want 2", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killOnRead crash-injects PE victim when the leader's detection pass
// reads PE next for the at-th time: that pass has already read victim and
// goes on to a verdict victim can no longer receive.
type killOnRead struct {
	w            *shmem.World
	armed        atomic.Bool // once the leader's passes may count
	victim, next int
	at           int32
	reads        atomic.Int32
}

func (k *killOnRead) Before(op shmem.Op, from, to int, addr shmem.Addr) shmem.Verdict {
	if k.armed.Load() && op == shmem.OpGet && from == 0 && to == k.next &&
		addr == 0 && k.reads.Add(1) == k.at {
		k.w.Kill(k.victim)
	}
	return shmem.Verdict{}
}

// A peer killed between the confirming pass and the broadcast can neither
// fail the world nor keep the verdict from a live peer: the leader voids
// the pass, waits out the death and broadcasts to every survivor before it
// reports done, with or without a peer dead before detection started.
func TestVerdictReachesEveryLivePeer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadPeer int // killed before detection starts; -1 for none
	}{{"fault-free", -1}, {"degraded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &killOnRead{victim: 1, next: 2, at: 2}
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, Fault: inj, DeadAfter: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			inj.w = w
			err = w.Run(func(c *shmem.Ctx) error {
				d, err := New(c)
				if err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() != 0 {
					return awaitVerdict(c, d)
				}
				if tc.deadPeer >= 0 {
					if err := killPeer(c, w, tc.deadPeer); err != nil {
						return err
					}
				}
				inj.armed.Store(true)
				if err := awaitVerdict(c, d); err != nil {
					return err
				}
				if inj.reads.Load() < inj.at {
					return fmt.Errorf("verdict after %d reads of PE %d, before the kill", inj.reads.Load(), inj.next)
				}
				for pe := 1; pe < c.NumPEs(); pe++ {
					if c.Liveness().Killed(pe) {
						continue
					}
					if v, err := c.Load64(pe, shmem.WordFlag.Addr()); err != nil || v == 0 {
						return fmt.Errorf("leader reported done while live PE %d's flag is %d (%v)", pe, v, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A held beacon is no verdict: once a peer is dead, two equal passes call
// the survivors quiescent, but not while one of them says it holds work
// outside every queue (a remote-spawn batch waiting on its target's
// verdict). Released, the same survivors end the job.
func TestHeldBeaconIsNoVerdict(t *testing.T) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 3, DeadAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var held, release, released atomic.Bool
	err = w.Run(func(c *shmem.Ctx) error {
		d, err := New(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		switch c.Rank() {
		case 1:
			d.Hold(true)
			held.Store(true)
			for !release.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			d.Hold(false)
			released.Store(true)
			return nil
		case 2:
			return nil
		}
		defer release.Store(true) // a failed leader must not strand PE 1
		for !held.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		if err := killPeer(c, w, 2); err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			if done, err := d.Check(); done || err != nil {
				return fmt.Errorf("pass %d over a held beacon: done=%v, %v", i, done, err)
			}
		}
		release.Store(true)
		for !released.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		for i := 0; i < 50; i++ {
			if done, err := d.Check(); done || err != nil {
				return err
			}
		}
		return fmt.Errorf("no verdict in 50 passes after the beacon was released")
	})
	if err != nil {
		t.Fatal(err)
	}
}
