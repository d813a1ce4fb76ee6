package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sws/internal/shmem"
	"sws/internal/wsq"
)

// Owner statistics and the diagnostic Probe must reflect queue activity.
func TestOwnerStatsAndProbe(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 20; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil {
				return err
			}
			for q.LocalCount() > 0 {
				if _, _, err := q.Pop(); err != nil {
					return err
				}
			}
			if _, err := q.Acquire(); err != nil {
				return err
			}
			st := q.Stats()
			if st.Releases != 1 {
				return fmt.Errorf("releases = %d, want 1", st.Releases)
			}
			if st.Acquires != 1 {
				return fmt.Errorf("acquires = %d, want 1", st.Acquires)
			}
			if st.Epochs < 1 {
				return fmt.Errorf("epochs = %d", st.Epochs)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil { // owner set up: 5 shared tasks
			return err
		}
		avail, err := q.Probe(0)
		if err != nil {
			return err
		}
		if avail != 5 {
			return fmt.Errorf("probe = %d, want 5 (10 shared, 5 reacquired)", avail)
		}
		// Probing costs one read-only communication and claims nothing.
		before := c.Counters().Snapshot()
		if _, err := q.Probe(0); err != nil {
			return err
		}
		d := c.Counters().Snapshot().Sub(before)
		if d.Total() != 1 || d.Of(shmem.OpLoad) != 1 {
			return fmt.Errorf("probe comms: %v", d)
		}
		again, err := q.Probe(0)
		if err != nil {
			return err
		}
		if again != avail {
			return fmt.Errorf("probe claimed work: %d -> %d", avail, again)
		}
		return c.Barrier()
	})
}

// Format accessor must match the configured options.
func TestFormatAccessor(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q1, err := NewQueue(c, Options{Epochs: true})
		if err != nil {
			return err
		}
		if q1.Format() != FormatV2 {
			return fmt.Errorf("epochs queue format %v", q1.Format())
		}
		q2, err := NewQueue(c, Options{Epochs: false})
		if err != nil {
			return err
		}
		if q2.Format() != FormatV1 {
			return fmt.Errorf("no-epochs queue format %v", q2.Format())
		}
		return nil
	})
}

// SharedAvail must track claims as thieves work through the block.
func TestSharedAvailTracksClaims(t *testing.T) {
	runWorld(t, 2, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := uint64(0); i < 32; i++ {
				if err := q.Push(desc(i)); err != nil {
					return err
				}
			}
			if _, err := q.Release(); err != nil { // 16 shared
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil { // thief claimed 8
				return err
			}
			if got := q.SharedAvail(); got != 8 {
				return fmt.Errorf("SharedAvail = %d, want 8", got)
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		tasks, out, err := q.Steal(0)
		if err != nil || out != wsq.Stolen || len(tasks) != 8 {
			return fmt.Errorf("steal: %v %d %v", out, len(tasks), err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
}

// SharedAvail caches the word it last unpacked, keyed on the word alone.
// With epochs a word can recur two epochs on while the cache still holds
// it — here an empty block, republished by two acquires that never ask for
// the availability — and a scripted claim moves the word past the cache;
// both must read what a fresh unpack of the word reads.
func TestSharedAvailRepublishedWord(t *testing.T) {
	runWorld(t, 1, func(c *shmem.Ctx) error {
		q, err := NewQueue(c, DefaultOptions())
		if err != nil {
			return err
		}
		for i := uint64(0); i < 8; i++ {
			if err := q.Push(desc(i)); err != nil {
				return err
			}
		}
		if _, err := q.Release(); err != nil { // 4 shared
			return err
		}
		if err := ownerViewsExact(q); err != nil {
			return err
		}
		// A scripted claim of the block's first half, then its completion.
		if _, err := c.FetchAdd64(0, q.StealvalAddr(), AstealsUnit); err != nil {
			return err
		}
		if err := ownerViewsExact(q); err != nil {
			return fmt.Errorf("after the claim: %w", err)
		}
		if err := c.Store64(0, q.CompletionSlotAddr(q.Epoch(), 0), uint64(wsq.StealHalf(4, 0))); err != nil {
			return err
		}
		// Empty the local portion, then acquire until both portions are
		// empty and an empty block is published.
		for q.LocalCount() > 0 || q.SharedAvail() > 0 {
			if q.LocalCount() == 0 {
				if _, err := q.Acquire(); err != nil {
					return err
				}
			} else if _, _, err := q.Pop(); err != nil {
				return err
			}
		}
		if _, err := q.Acquire(); err != nil {
			return err
		}
		if err := ownerViewsExact(q); err != nil {
			return err
		}
		cached, epoch := q.svWord, q.Epoch()
		for range MaxEpochs {
			if _, err := q.Acquire(); err != nil {
				return err
			}
		}
		if w := atomic.LoadUint64(q.stealval); w != cached || q.Epoch() != epoch+MaxEpochs {
			return fmt.Errorf("epoch %d -> %d republished %#x, the cache holds %#x", epoch, q.Epoch(), w, cached)
		}
		return ownerViewsExact(q)
	})
}
