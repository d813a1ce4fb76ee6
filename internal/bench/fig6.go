package bench

import (
	"fmt"

	"sws/internal/shmem"
)

// Fig6Config parameterizes the steal-latency microbenchmark.
type Fig6Config struct {
	// Volumes are the steal sizes to measure (paper: 1..1024 in octaves).
	Volumes []int
	// SlotSizes are total task slot sizes in bytes (paper: 24 and 192).
	SlotSizes []int
	// Reps is the number of timed steals per point.
	Reps int
	// World is the two-PE world each steal runs in (its NumPEs and
	// HeapBytes are the microbenchmark's): the injected latency model, or
	// the transport.
	World shmem.Config
}

// DefaultFig6 returns the paper's sweep.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Volumes:   []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		SlotSizes: []int{24, 192},
		Reps:      30,
		World:     shmem.Config{Latency: DefaultLatency()},
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
	protos := protocols[:2] // the paper's two curves: SDC and SWS
	t := &Table{
		Title: "Figure 6: steal operation time vs steal volume",
		Note: fmt.Sprintf("median of %d steals per point; injected RTT %v; paper shape: SWS ~ half of SDC at small volumes, converging at large",
			cfg.Reps, cfg.World.Latency.BlockingRTT),
		Header: []string{"volume"},
	}
	for _, slot := range cfg.SlotSizes {
		if slot < 8 {
			return nil, fmt.Errorf("bench: slot size %d smaller than task header", slot)
		}
		for _, p := range protos {
			t.Header = append(t.Header, fmt.Sprintf("%s %dB", p.name, slot))
		}
	}
	for _, v := range cfg.Volumes {
		row := []string{fmt.Sprint(v)}
		for _, slot := range cfg.SlotSizes {
			for _, p := range protos {
				durs, err := stealTimes(cfg.World, p, slot-8, 4*v, v, cfg.Reps)
				if err != nil {
					return nil, fmt.Errorf("bench: fig6 %s/%dB vol %d: %w", p.name, slot, v, err)
				}
				row = append(row, fmtDur(median(durs)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
