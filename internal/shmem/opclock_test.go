package shmem

import (
	"fmt"
	"testing"

	"sws/internal/obs"
	"sws/internal/trace"
)

// TestOpClockSampled is the count guard of the op clock: an untraced
// blocking remote op, a steal's span-tagged ones too, is timed once in
// obs.SampleEvery of its kind (the first and every SampleEvery-th after
// it), while the op counts stay exact; on a trace ring every op is timed;
// under the sim none is.
func TestOpClockSampled(t *testing.T) {
	const n = 1000
	everyTransport(t, func(t *testing.T, cfg Config) {
		for _, mode := range []string{"sampled", "traced", "span"} {
			t.Run(mode, func(t *testing.T) {
				timed := uint64(n)
				switch {
				case cfg.Transport == TransportSim:
					timed = 0
				case mode != "traced":
					timed = (n + obs.SampleEvery - 1) / obs.SampleEvery
				}
				// The span view has no put-signal: a span tags a steal's sub-ops.
				want := map[Op]uint64{OpFetchAdd: timed, OpPutSignal: timed}
				if mode == "span" {
					want = map[Op]uint64{OpFetchAdd: timed}
				}
				run(t, cfg, func(c *Ctx) error {
					word, data, sig := c.MustAlloc(WordSize), c.MustAlloc(24), c.MustAlloc(WordSize)
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						if err := opClockRound(c, mode, n, word, data, sig); err != nil {
							return err
						}
						for op, w := range want {
							if got := c.Counters().Snapshot().Of(op); got != n {
								return fmt.Errorf("%v: %d ops counted, want %d", op, got, n)
							}
							if got := c.Counters().Latency(op).Count(); got != w {
								return fmt.Errorf("%v: %d latency samples for %d ops, want %d", op, got, n, w)
							}
						}
					}
					return c.Barrier()
				})
			})
		}
	})
}

// opClockRound issues n remote fetch-adds and, outside the span mode, n
// remote put-signals from c to rank 1.
func opClockRound(c *Ctx, mode string, n int, word, data, sig Addr) error {
	var span uint64
	switch mode {
	case "traced":
		c.AttachTrace(trace.NewFlight(c.Rank(), 64))
	case "span":
		span = 1
	}
	payload := make([]byte, 24)
	for i := 0; i < n; i++ {
		if _, err := c.WithSpan(span).FetchAdd64(1, word, 1); err != nil {
			return err
		}
		if mode == "span" {
			continue
		}
		if err := c.PutSignal(1, data, payload, sig, uint64(i+1)); err != nil {
			return err
		}
	}
	return nil
}
