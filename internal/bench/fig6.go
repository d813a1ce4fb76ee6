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

// Fig6Config parameterizes the steal-latency microbenchmark.
type Fig6Config struct {
	// Volumes are the steal sizes to measure (paper: 1..1024 in octaves).
	Volumes []int
	// SlotSizes are total task slot sizes in bytes (paper: 24 and 192).
	SlotSizes []int
	// Reps is the number of timed steals per point.
	Reps int
	// Latency is the injected communication model.
	Latency shmem.LatencyModel
}

// DefaultFig6 returns the paper's sweep.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Volumes:   []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		SlotSizes: []int{24, 192},
		Reps:      30,
		Latency:   DefaultLatency(),
	}
}

// Fig6 measures the latency of a single steal operation as a function of
// stolen volume and task size, for both protocols (Figure 6). The paper's
// expected shape: SWS ≈ half of SDC at small volumes (latency-dominated),
// converging as the task copy (bandwidth) dominates.
func Fig6(cfg Fig6Config) (*Table, error) {
	if len(cfg.Volumes) == 0 || len(cfg.SlotSizes) == 0 || cfg.Reps < 1 {
		return nil, fmt.Errorf("bench: empty fig6 config")
	}
	type key struct {
		slot  int
		proto string
	}
	results := make(map[key][]stats.Summary) // indexed parallel to Volumes

	protos := []struct {
		name string
		mk   func(c *shmem.Ctx, payloadCap, capacity int) (wsq.Queue, error)
	}{
		{"SDC", func(c *shmem.Ctx, payloadCap, capacity int) (wsq.Queue, error) {
			return sdc.NewQueue(c, sdc.Options{PayloadCap: payloadCap, Capacity: capacity})
		}},
		{"SWS", func(c *shmem.Ctx, payloadCap, capacity int) (wsq.Queue, error) {
			return core.NewQueue(c, core.Options{PayloadCap: payloadCap, Capacity: capacity, Epochs: true, Damping: true})
		}},
	}

	for _, slot := range cfg.SlotSizes {
		payloadCap := slot - 8
		if payloadCap < 0 {
			return nil, fmt.Errorf("bench: slot size %d smaller than task header", slot)
		}
		for _, p := range protos {
			samples, err := fig6Series(cfg, p.mk, payloadCap)
			if err != nil {
				return nil, fmt.Errorf("bench: fig6 %s/%dB: %w", p.name, slot, err)
			}
			results[key{slot, p.name}] = samples
		}
	}

	t := &Table{
		Title: "Figure 6: steal operation time vs steal volume",
		Note: fmt.Sprintf("median of %d steals per point; injected RTT %v; paper shape: SWS ~ half of SDC at small volumes, converging at large",
			cfg.Reps, cfg.Latency.BlockingRTT),
		Header: []string{"volume"},
	}
	for _, slot := range cfg.SlotSizes {
		for _, p := range protos {
			t.Header = append(t.Header, fmt.Sprintf("%s %dB", p.name, slot))
		}
	}
	for vi, v := range cfg.Volumes {
		row := []string{fmt.Sprint(v)}
		for _, slot := range cfg.SlotSizes {
			for _, p := range protos {
				s := results[key{slot, p.name}][vi]
				row = append(row, fmtDur(time.Duration(s.Median*float64(time.Second))))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig6Series measures one (protocol, task size) curve across the volumes.
func fig6Series(cfg Fig6Config, mk func(*shmem.Ctx, int, int) (wsq.Queue, error), payloadCap int) ([]stats.Summary, error) {
	maxVol := 0
	for _, v := range cfg.Volumes {
		if v > maxVol {
			maxVol = v
		}
	}
	capacity := 8 * maxVol
	if capacity < 64 {
		capacity = 64
	}
	heap := capacity*(payloadCap+16) + (1 << 16)
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: heap, Latency: cfg.Latency})
	if err != nil {
		return nil, err
	}
	out := make([]stats.Summary, len(cfg.Volumes))
	payload := make([]byte, payloadCap)
	err = w.Run(func(c *shmem.Ctx) error {
		q, err := mk(c, payloadCap, capacity)
		if err != nil {
			return err
		}
		for vi, vol := range cfg.Volumes {
			durs := make([]time.Duration, 0, cfg.Reps)
			for rep := 0; rep < cfg.Reps; rep++ {
				if c.Rank() == 0 {
					// Expose exactly 2*vol so the thief's steal-half
					// claims vol tasks.
					for i := 0; i < 4*vol; i++ {
						if err := q.Push(task.Desc{Handle: 0, Payload: payload}); err != nil {
							return err
						}
					}
					if n, err := q.Release(); err != nil {
						return err
					} else if n != 2*vol {
						return fmt.Errorf("released %d, want %d", n, 2*vol)
					}
					if err := c.Barrier(); err != nil { // victim ready
						return err
					}
					if err := c.Barrier(); err != nil { // thief stole
						return err
					}
					// Drain every remaining task and reclaim the space.
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
					if err := c.Barrier(); err != nil { // round done
						return err
					}
					continue
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				start := time.Now()
				tasks, outc, err := q.Steal(0)
				el := time.Since(start)
				if err != nil {
					return err
				}
				if outc != wsq.Stolen || len(tasks) != vol {
					return fmt.Errorf("vol %d rep %d: outcome=%v n=%d", vol, rep, outc, len(tasks))
				}
				durs = append(durs, el)
				if err := c.Quiet(); err != nil { // completion landed
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			if c.Rank() == 1 {
				out[vi] = stats.Summarize(stats.Durations(durs))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
