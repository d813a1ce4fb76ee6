package bench

import (
	"fmt"
	"time"

	"sws/internal/pool"
	"sws/internal/stats"
)

// SweepConfig drives the six-panel benchmark figures (Figures 7 and 8):
// a PE-count sweep of a workload under both protocols with repetitions.
type SweepConfig struct {
	// Name labels the output ("BPC", "UTS").
	Name string
	// PECounts is the x-axis (paper: 48..2112; defaults scale to one
	// machine).
	PECounts []int
	// Reps is the number of repetitions per point (paper: 10).
	Reps int
	// Base is the per-run configuration (protocol is set by the sweep).
	Base RunConfig
	// Factory builds a fresh workload per run.
	Factory Factory
}

// ProtoPoint holds one (protocol, PE count) cell of a sweep.
type ProtoPoint struct {
	Runtime    stats.Summary // seconds
	Throughput stats.Summary // tasks/second
	StealTime  stats.Summary // seconds, summed over PEs per run
	SearchTime stats.Summary // seconds, summed over PEs per run
	Steals     stats.Summary // successful steals per run
	Attempts   stats.Summary // attempted steals per run
}

// SweepPoint is one PE count's results for both protocols.
type SweepPoint struct {
	PEs  int
	SDC  ProtoPoint
	SWS  ProtoPoint
	Runs int
}

// SweepResult is a full sweep.
type SweepResult struct {
	Name   string
	Points []SweepPoint
}

// RunSweep executes the sweep: for every PE count, Reps runs under each
// protocol.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.PECounts) == 0 || cfg.Reps < 1 || cfg.Factory == nil {
		return nil, fmt.Errorf("bench: incomplete sweep config")
	}
	res := &SweepResult{Name: cfg.Name}
	for _, pes := range cfg.PECounts {
		pt := SweepPoint{PEs: pes, Runs: cfg.Reps}
		for _, proto := range []pool.Protocol{pool.SDC, pool.SWS} {
			rc := cfg.Base
			rc.World.NumPEs = pes
			rc.Pool.Protocol = proto
			runs, err := RunReps(rc, cfg.Factory, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("bench: sweep %s pes=%d proto=%v: %w", cfg.Name, pes, proto, err)
			}
			pp := summarizeRuns(runs)
			if proto == pool.SDC {
				pt.SDC = pp
			} else {
				pt.SWS = pp
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func summarizeRuns(runs []stats.Run) ProtoPoint {
	var rt, th, st, se, ok, at []float64
	for _, r := range runs {
		tot := r.Total()
		rt = append(rt, r.Elapsed.Seconds())
		th = append(th, r.Throughput())
		st = append(st, tot.StealTime.Seconds())
		se = append(se, tot.SearchTime.Seconds())
		ok = append(ok, float64(tot.StealsSuccessful))
		at = append(at, float64(tot.StealsAttempted))
	}
	return ProtoPoint{
		Runtime:    stats.Summarize(rt),
		Throughput: stats.Summarize(th),
		StealTime:  stats.Summarize(st),
		SearchTime: stats.Summarize(se),
		Steals:     stats.Summarize(ok),
		Attempts:   stats.Summarize(at),
	}
}

// Panels renders the sweep as the paper's six panels (a–f) plus a raw
// summary row per point.
func (r *SweepResult) Panels() []*Table {
	baseSDC, baseSWS := 0.0, 0.0
	basePEs := 0
	if len(r.Points) > 0 {
		basePEs = r.Points[0].PEs
		baseSDC = r.Points[0].SDC.Runtime.Mean
		baseSWS = r.Points[0].SWS.Runtime.Mean
	}

	a := &Table{
		Title:  fmt.Sprintf("Figure a: %s task throughput (tasks/s)", r.Name),
		Header: []string{"PEs", "SDC", "SWS"},
	}
	b := &Table{
		Title:  fmt.Sprintf("Figure b: %s relative runtime improvement of SWS over SDC", r.Name),
		Note:   "percent of SDC runtime; >100% means SWS is faster (paper's framing)",
		Header: []string{"PEs", "SDC/SWS x 100%"},
	}
	cpanel := &Table{
		Title:  fmt.Sprintf("Figure c: %s parallel efficiency relative to ideal scaling from %d PEs", r.Name, basePEs),
		Header: []string{"PEs", "SDC %", "SWS %"},
	}
	d := &Table{
		Title:  fmt.Sprintf("Figure d: %s run variation", r.Name),
		Header: []string{"PEs", "SDC SD%", "SWS SD%", "SDC range%", "SWS range%"},
	}
	e := &Table{
		Title:  fmt.Sprintf("Figure e: %s cumulative steal time (ms, summed over PEs)", r.Name),
		Header: []string{"PEs", "SDC", "SWS", "SDC steals", "SWS steals"},
	}
	f := &Table{
		Title:  fmt.Sprintf("Figure f: %s cumulative search time (ms, summed over PEs)", r.Name),
		Header: []string{"PEs", "SDC", "SWS", "SDC attempts", "SWS attempts"},
	}

	for _, pt := range r.Points {
		pes := fmt.Sprint(pt.PEs)
		a.Rows = append(a.Rows, []string{pes, fmtF(pt.SDC.Throughput.Mean), fmtF(pt.SWS.Throughput.Mean)})
		improvement := 0.0
		if pt.SWS.Runtime.Mean > 0 {
			improvement = 100 * pt.SDC.Runtime.Mean / pt.SWS.Runtime.Mean
		}
		b.Rows = append(b.Rows, []string{pes, fmtF(improvement)})
		effSDC, effSWS := 0.0, 0.0
		if pt.SDC.Runtime.Mean > 0 && basePEs > 0 {
			effSDC = 100 * baseSDC * float64(basePEs) / (pt.SDC.Runtime.Mean * float64(pt.PEs))
		}
		if pt.SWS.Runtime.Mean > 0 && basePEs > 0 {
			effSWS = 100 * baseSWS * float64(basePEs) / (pt.SWS.Runtime.Mean * float64(pt.PEs))
		}
		cpanel.Rows = append(cpanel.Rows, []string{pes, fmtF(effSDC), fmtF(effSWS)})
		d.Rows = append(d.Rows, []string{
			pes,
			fmtF(100 * pt.SDC.Runtime.RelSD), fmtF(100 * pt.SWS.Runtime.RelSD),
			fmtF(100 * pt.SDC.Runtime.RelRange), fmtF(100 * pt.SWS.Runtime.RelRange),
		})
		e.Rows = append(e.Rows, []string{
			pes, fmtF(1000 * pt.SDC.StealTime.Mean), fmtF(1000 * pt.SWS.StealTime.Mean),
			fmtF(pt.SDC.Steals.Mean), fmtF(pt.SWS.Steals.Mean),
		})
		f.Rows = append(f.Rows, []string{
			pes, fmtF(1000 * pt.SDC.SearchTime.Mean), fmtF(1000 * pt.SWS.SearchTime.Mean),
			fmtF(pt.SDC.Attempts.Mean), fmtF(pt.SWS.Attempts.Mean),
		})
	}
	return []*Table{a, b, cpanel, d, e, f}
}

// RuntimeTable renders mean runtimes per point, a compact summary used by
// EXPERIMENTS.md.
func (r *SweepResult) RuntimeTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("%s mean runtime", r.Name),
		Header: []string{"PEs", "SDC", "SWS", "SWS gain %"},
	}
	for _, pt := range r.Points {
		gain := 0.0
		if pt.SDC.Runtime.Mean > 0 {
			gain = 100 * (pt.SDC.Runtime.Mean - pt.SWS.Runtime.Mean) / pt.SDC.Runtime.Mean
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.PEs),
			fmtDur(time.Duration(pt.SDC.Runtime.Mean * float64(time.Second))),
			fmtDur(time.Duration(pt.SWS.Runtime.Mean * float64(time.Second))),
			fmtF(gain),
		})
	}
	return t
}
