package bench

import (
	"fmt"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// Ablations isolate the design choices DESIGN.md §6 calls out, as tables.

// AblationConfig scales the ablation workloads: the world they run on
// (AblationRTT varies its blocking round trip) and the repetitions.
type AblationConfig struct {
	World shmem.Config
	Reps  int
}

// DefaultAblation returns the laptop-scale configuration.
func DefaultAblation() AblationConfig {
	return AblationConfig{World: shmem.Config{NumPEs: 4, Latency: DefaultLatency()}, Reps: 5}
}

// ablationRow measures one configuration: mean runtime, steal counts, and
// attempt counts over reps.
func ablationRow(cfg AblationConfig, pcfg pool.Config, f Factory) (stats.Summary, stats.PE, error) {
	pcfg.Seed = 5
	runs, err := RunReps(RunConfig{World: cfg.World, Pool: pcfg}, f, cfg.Reps)
	if err != nil {
		return stats.Summary{}, stats.PE{}, err
	}
	var rt []float64
	var tot stats.PE
	for _, r := range runs {
		rt = append(rt, r.Elapsed.Seconds())
		tot.Add(r.Total())
	}
	return stats.Summarize(rt), tot, nil
}

// AblationEpochs compares SWS with completion epochs (format V2) against
// the §4.1 wait-for-all behaviour (format V1) on a BPC workload.
func AblationEpochs(cfg AblationConfig) (*Table, error) {
	params := bpc.Params{Depth: 16, NConsumers: 64, ConsumerWork: 20 * time.Microsecond, ProducerWork: 4 * time.Microsecond}
	t := &Table{
		Title:  "Ablation: completion epochs (§4.2)",
		Note:   "SWS on BPC; without epochs the owner waits for in-flight steals at every queue reset",
		Header: []string{"variant", "mean runtime", "relSD %", "steals", "acquires"},
	}
	for _, noEpochs := range []bool{false, true} {
		name := "epochs (V2)"
		if noEpochs {
			name = "no epochs (V1)"
		}
		pcfg := pool.Config{PayloadCap: 24, NoEpochs: noEpochs}
		sum, tot, err := ablationRow(cfg, pcfg, func() (Workload, error) { return bpc.NewWorkload(params) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmtDur(time.Duration(sum.Mean * float64(time.Second))),
			fmtF(100 * sum.RelSD),
			fmt.Sprint(tot.StealsSuccessful),
			fmt.Sprint(tot.Acquires),
		})
	}
	return t, nil
}

// AblationDamping compares steal damping on and off under scarce work
// (the §4.3 regime: thieves repeatedly probing nearly-empty queues).
func AblationDamping(cfg AblationConfig) (*Table, error) {
	params := bpc.Params{Depth: 8, NConsumers: 16, ConsumerWork: 100 * time.Microsecond, ProducerWork: 10 * time.Microsecond}
	t := &Table{
		Title:  "Ablation: steal damping (§4.3)",
		Note:   "SWS on scarce-work BPC; damping trades fetch-add spam for read-only probes",
		Header: []string{"variant", "mean runtime", "attempts", "empty", "steals"},
	}
	for _, noDamping := range []bool{false, true} {
		name := "damping"
		if noDamping {
			name = "no damping"
		}
		pcfg := pool.Config{PayloadCap: 24, NoDamping: noDamping}
		sum, tot, err := ablationRow(cfg, pcfg, func() (Workload, error) { return bpc.NewWorkload(params) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmtDur(time.Duration(sum.Mean * float64(time.Second))),
			fmt.Sprint(tot.StealsAttempted),
			fmt.Sprint(tot.StealsEmpty),
			fmt.Sprint(tot.StealsSuccessful),
		})
	}
	return t, nil
}

// AblationRTT times one 16-task steal (24-byte slots) under each protocol
// as the injected blocking round trip grows. A steal should cost what its
// communications cost (Rito & Paulino), so the columns part by round
// trips per steal: SDC 5, SWS 2, SWS-Fused 1.
func AblationRTT(cfg AblationConfig) (*Table, error) {
	const vol, steals = 16, 30
	t := &Table{
		Title:  "Ablation: steal time vs injected round trip",
		Note:   fmt.Sprintf("median of %d steals of %d tasks, 24 B slots; blocking round trips per steal: SDC 5, SWS 2, SWS-Fused 1", steals, vol),
		Header: []string{"RTT"},
	}
	for _, p := range protocols {
		t.Header = append(t.Header, p.name)
	}
	for _, rtt := range []time.Duration{500 * time.Nanosecond, 2 * time.Microsecond, 8 * time.Microsecond} {
		w := cfg.World
		w.Latency.BlockingRTT = rtt
		row := []string{rtt.String()}
		for _, p := range protocols {
			durs, err := stealTimes(w, p, 16, 4*vol, vol, steals)
			if err != nil {
				return nil, fmt.Errorf("bench: rtt %v %s: %w", rtt, p.name, err)
			}
			row = append(row, fmtDur(median(durs)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Ablations runs every ablation table.
func Ablations(cfg AblationConfig) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(AblationConfig) (*Table, error){AblationEpochs, AblationDamping, AblationRTT} {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
