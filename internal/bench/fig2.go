package bench

import (
	"fmt"

	"sws/internal/core"
	"sws/internal/shmem"
	"sws/internal/wsq"
)

// Fig2 audits the steal communication structure of both protocols by
// counting actual one-sided operations per steal, reproducing Figure 2:
// SDC needs 6 communications (5 blocking), SWS needs 3 (2 blocking); a
// failed (empty) discovery costs SDC 3 communications vs a single 64-bit
// fetch for SWS.
func Fig2() (*Table, error) {
	t := &Table{
		Title:  "Figure 2: steal communication structure (measured one-sided ops)",
		Note:   "paper: SDC = 6 ops (5 blocking), SWS = 3 ops (2 blocking); SWS-Fused is the Portals-offload ablation beyond the paper",
		Header: []string{"protocol", "operation", "comms", "blocking", "non-blocking", "breakdown"},
	}
	for _, p := range protocols {
		record := func(kind string, d shmem.CounterSnapshot) {
			t.Rows = append(t.Rows, []string{
				p.name, kind,
				fmt.Sprint(d.Total()), fmt.Sprint(d.Blocking()), fmt.Sprint(d.NonBlocking()),
				d.String(),
			})
		}
		// One round: count a steal, drain the victim's shared block, then
		// count an empty discovery.
		_, err := stealRounds(shmem.Config{}, p, core.Options{Capacity: 128, PayloadCap: 8}, 1, 64,
			func(c *shmem.Ctx, q wsq.Queue) error {
				before := c.Counters().Snapshot()
				_, out, err := q.Steal(0)
				if err != nil {
					return err
				}
				if out != wsq.Stolen {
					return fmt.Errorf("steal outcome %v", out)
				}
				record("successful steal", c.Counters().Snapshot().Sub(before))
				for out == wsq.Stolen {
					if _, out, err = q.Steal(0); err != nil {
						return err
					}
				}
				before = c.Counters().Snapshot()
				if _, out, err = q.Steal(0); err != nil {
					return err
				}
				if out != wsq.Empty {
					return fmt.Errorf("discovery outcome %v", out)
				}
				record("empty discovery", c.Counters().Snapshot().Sub(before))
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("bench: fig2 %s: %w", p.name, err)
		}
	}
	return t, nil
}
