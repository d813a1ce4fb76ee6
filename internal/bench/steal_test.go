package bench

import (
	"fmt"
	"testing"
	"time"

	"sws/internal/core"
	"sws/internal/shmem"
	"sws/internal/wsq"
)

// BenchmarkStealWire measures the steal hot path — claim (fetch-add),
// block copy (get), completion notify (store-NBI) — per transport, with
// allocations visible under -benchmem. Zero latency model so the numbers
// isolate the wire path (marshalling, buffering, payload staging). b.N
// counts single-task steals, each from a one-task release.
func BenchmarkStealWire(b *testing.B) {
	kinds := []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP}
	if shmem.ShmSupported() {
		kinds = append(kinds, shmem.TransportShm)
	}
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			durs, err := stealTimes(shmem.Config{Transport: kind}, protocols[1], 16, 2, 1, b.N) // SWS
			if err != nil {
				b.Fatal(err)
			}
			var total time.Duration
			for _, d := range durs {
				total += d
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/steal")
		})
	}
}

// TestGrowableStealComms gates the elastic queue's steal path at zero
// extra communication: a thief derives the victim's geometry from the
// class bits of the stealval word it already fetches, so its one-sided
// ops per steal — every kind, blocking or not — must be identical with
// the grow machinery dormant (Growable on, ring never fills) and absent
// (Growable off). A geometry fetch or an epoch-check round trip added to
// Steal makes the counts diverge.
func TestGrowableStealComms(t *testing.T) {
	const steals, vol = 64, 16
	var comms [2]shmem.CounterSnapshot
	for i, growable := range []bool{false, true} {
		// 4*vol tasks in flight can never fill the 8*vol starting ring.
		o := core.Options{Capacity: 8 * vol, PayloadCap: 16, Growable: growable}
		victim, err := stealRounds(shmem.Config{}, protocols[1], o, steals, 4*vol, func(c *shmem.Ctx, q wsq.Queue) error { // SWS
			before := c.Counters().Snapshot()
			tasks, out, err := q.Steal(0)
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != vol {
				return fmt.Errorf("steal: out=%v n=%d want %d", out, len(tasks), vol)
			}
			comms[i] = comms[i].Add(c.Counters().Snapshot().Sub(before))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if grows := victim.(*core.Queue).Stats().Grows; grows != 0 {
			t.Fatalf("growable=%v leg reseated %d times; it no longer measures the no-grow steal path", growable, grows)
		}
	}
	off, on := comms[0], comms[1]
	if on.Ops != off.Ops {
		t.Errorf("grow machinery changed the steal wire: growable %d ops (%d blocking) per %d steals [%v], fixed %d (%d) [%v]",
			on.Total(), on.Blocking(), steals, on, off.Total(), off.Blocking(), off)
	}
}
