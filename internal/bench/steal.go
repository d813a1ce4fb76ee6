package bench

import (
	"fmt"
	"time"

	"sws/internal/core"
	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/wsq"
)

// protocol is one steal protocol the steal microbenchmarks compare: a
// queue built on a PE with the benchmark's capacity, payload size and
// elasticity.
type protocol struct {
	name  string
	queue func(c *shmem.Ctx, o core.Options) (wsq.Queue, error)
}

// protocols are the paper's two, then the Portals-style fused claim+copy
// beyond it. Damping is off in both SWS variants: it only changes how a
// thief probes a victim it already found empty, and Figure 2's empty
// discovery is the fetch-add it would replace.
var protocols = []protocol{
	{"SDC", func(c *shmem.Ctx, o core.Options) (wsq.Queue, error) {
		return sdc.NewQueue(c, sdc.Options{Capacity: o.Capacity, PayloadCap: o.PayloadCap})
	}},
	{"SWS", func(c *shmem.Ctx, o core.Options) (wsq.Queue, error) {
		o.Epochs = true
		return core.NewQueue(c, o)
	}},
	{"SWS-Fused", func(c *shmem.Ctx, o core.Options) (wsq.Queue, error) {
		o.Epochs, o.Fused = true, true
		return core.NewQueue(c, o)
	}},
}

// stealRounds is the victim/thief exchange every steal microbenchmark
// runs, in a fresh two-PE world w over p's queues shaped by o. Each round
// PE 0 pushes push tasks and releases half of them; PE 1 runs thief
// against PE 0, then completes its steals (Quiet); PE 0 pops what is left,
// acquires back what was not stolen and reclaims the space the steals
// freed (Progress). A barrier closes each of the three steps. It returns
// PE 0's queue, for its owner-side counters.
func stealRounds(w shmem.Config, p protocol, o core.Options, rounds, push int, thief func(c *shmem.Ctx, q wsq.Queue) error) (wsq.Queue, error) {
	w.NumPEs, w.HeapBytes = 2, o.Capacity*(o.PayloadCap+64)+1<<16
	world, err := shmem.NewWorld(w)
	if err != nil {
		return nil, err
	}
	var victim wsq.Queue
	payload := make([]byte, o.PayloadCap)
	err = world.Run(func(c *shmem.Ctx) error {
		q, err := p.queue(c, o)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			victim = q
		}
		for r := 0; r < rounds; r++ {
			if c.Rank() == 0 {
				for i := 0; i < push; i++ {
					if err := q.Push(task.Desc{Payload: payload}); err != nil {
						return err
					}
				}
				if n, err := q.Release(); err != nil {
					return err
				} else if n != push/2 {
					return fmt.Errorf("%s released %d of %d tasks, want half", p.name, n, push)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := thief(c, q); err != nil {
					return err
				}
				if err := c.Quiet(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for {
					if _, ok, err := q.Pop(); err != nil {
						return err
					} else if !ok {
						if n, err := q.Acquire(); err != nil {
							return err
						} else if n == 0 {
							break
						}
					}
				}
				if err := q.Progress(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	return victim, err
}

// stealTimes times reps steals under protocol p with payloadCap-byte
// payloads: the victim pushes push tasks a round, and each steal must
// claim vol of the half it releases.
func stealTimes(w shmem.Config, p protocol, payloadCap, push, vol, reps int) ([]time.Duration, error) {
	durs := make([]time.Duration, 0, reps)
	_, err := stealRounds(w, p, core.Options{Capacity: max(2*push, 64), PayloadCap: payloadCap}, reps, push,
		func(c *shmem.Ctx, q wsq.Queue) error {
			start := c.Now()
			tasks, out, err := q.Steal(0)
			el := c.Now().Sub(start)
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != vol {
				return fmt.Errorf("%s stole %d tasks (%v), want %d", p.name, len(tasks), out, vol)
			}
			durs = append(durs, el)
			return nil
		})
	return durs, err
}

func median(durs []time.Duration) time.Duration {
	return time.Duration(stats.Summarize(stats.Durations(durs)).Median * float64(time.Second))
}
