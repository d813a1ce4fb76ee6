// Package bench is the experiment harness: it re-runs every table and
// figure of the paper's evaluation (§5) against this repository's SWS and
// SDC implementations and renders the results as text tables or CSV.
//
// The per-experiment index lives in DESIGN.md §5; measured outputs are
// recorded in EXPERIMENTS.md. Absolute numbers differ from the paper (the
// substrate is an emulated fabric, not 2,112 cores of EDR InfiniBand);
// the harness exists to check the paper's *shapes*: who wins, by what
// factor, and how the gap trends.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
)

// DefaultLatency is the injected communication model used by benchmarks:
// a 2 µs blocking round-trip, 200 ns non-blocking injection, and 1 µs/KiB
// of bandwidth — EDR-InfiniBand-scale ratios (DESIGN.md §4.7).
func DefaultLatency() shmem.LatencyModel {
	return shmem.LatencyModel{
		BlockingRTT:    2 * time.Microsecond,
		InjectOverhead: 200 * time.Nanosecond,
		PerKB:          time.Microsecond,
	}
}

// Workload is a benchmark application that can attach to a pool.
type Workload interface {
	Register(reg *pool.Registry) error
	Seed(p *pool.Pool, rank int) error
}

// Factory builds a fresh Workload per run (workloads accumulate counters,
// so they are not reusable across runs).
type Factory func() (Workload, error)

// RunConfig describes one pool execution.
type RunConfig struct {
	PEs       int
	Latency   shmem.LatencyModel
	Transport shmem.TransportKind
	HeapBytes int
	Pool      pool.Config
}

func (c *RunConfig) setDefaults() {
	if c.PEs == 0 {
		c.PEs = 4
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 16 << 20
	}
}

// RunOnce executes one full pool run and gathers per-PE statistics.
func RunOnce(cfg RunConfig, f Factory) (stats.Run, error) {
	cfg.setDefaults()
	// The workload first: only World.Run releases what NewWorld acquires
	// (listeners and service goroutines, a sim scheduler, a mapping), so
	// nothing may fail between building the world and running it.
	wl, err := f()
	if err != nil {
		return stats.Run{}, err
	}
	w, err := shmem.NewWorld(shmem.Config{
		NumPEs:    cfg.PEs,
		HeapBytes: cfg.HeapBytes,
		Latency:   cfg.Latency,
		Transport: cfg.Transport,
	})
	if err != nil {
		return stats.Run{}, err
	}
	return pool.RunOnce(w, cfg.Pool, func(_ int, reg *pool.Registry) error { return wl.Register(reg) }, wl.Seed, nil)
}

// RunReps executes reps independent runs (fresh world and workload each),
// varying the victim-selection seed per repetition.
func RunReps(cfg RunConfig, f Factory, reps int) ([]stats.Run, error) {
	if reps < 1 {
		return nil, fmt.Errorf("bench: reps %d < 1", reps)
	}
	out := make([]stats.Run, 0, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Pool.Seed = cfg.Pool.Seed + int64(i)*7919
		if c.Pool.Seed == 0 {
			c.Pool.Seed = int64(i + 1)
		}
		r, err := RunOnce(c, f)
		if err != nil {
			return nil, fmt.Errorf("bench: rep %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Note); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	dashes := make([]string, len(t.Header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(dashes)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur renders a duration with µs precision for table cells.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// fmtF renders a float at a sensible table precision.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtDurFine renders a duration at full precision (for sub-µs task times).
func fmtDurFine(d time.Duration) string { return d.String() }

// SingleRunTable renders one run's headline numbers, for the CLI tools.
func SingleRunTable(name string, run stats.Run) *Table {
	tot := run.Total()
	avg := time.Duration(0)
	if tot.TasksExecuted > 0 {
		avg = tot.ExecTime / time.Duration(tot.TasksExecuted)
	}
	t := &Table{
		Title:  fmt.Sprintf("%s (%s, %d PEs)", name, run.Protocol, len(run.PEs)),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"runtime", fmtDur(run.Elapsed)},
			{"tasks executed", fmt.Sprint(tot.TasksExecuted)},
			{"throughput (tasks/s)", fmtF(run.Throughput())},
			{"avg task time", fmtDur(avg)},
			{"steals ok/empty/disabled", fmt.Sprintf("%d/%d/%d", tot.StealsSuccessful, tot.StealsEmpty, tot.StealsDisabled)},
			{"tasks stolen", fmt.Sprint(tot.TasksStolen)},
			{"steal time (sum)", fmtDur(tot.StealTime)},
			{"search time (sum)", fmtDur(tot.SearchTime)},
			{"releases/acquires", fmt.Sprintf("%d/%d", tot.Releases, tot.Acquires)},
			{"idle iterations", fmt.Sprint(tot.IdleIters)},
		},
	}
	// Overflow past a full split queue only shows up when it happened.
	if tot.TasksSpilled != 0 {
		t.Rows = append(t.Rows, []string{"tasks spilled", fmt.Sprint(tot.TasksSpilled)})
	}
	// Every PE reports a row per worker; surface them when some PE has
	// executors, so the intra-PE load balance is visible alongside the PE
	// totals (with one worker per PE the rows only repeat the PE's own).
	if len(tot.Workers) > len(run.PEs) {
		for _, w := range tot.Workers {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("pe %d worker %d", w.PE, w.ID),
				fmt.Sprintf("exec %d (%d from ring), spawn %d, exec time %s, idle %d",
					w.TasksExecuted, w.FromRing, w.TasksSpawned, fmtDur(w.ExecTime), w.IdleIters),
			})
		}
	}
	for _, key := range latencyRowKeys {
		snap, ok := tot.Lat[key]
		if !ok || snap.Empty() {
			continue
		}
		t.Rows = append(t.Rows, []string{
			key + " p50/p95/p99",
			fmt.Sprintf("%s/%s/%s",
				fmtDurFine(snap.Quantile(0.50)),
				fmtDurFine(snap.Quantile(0.95)),
				fmtDurFine(snap.Quantile(0.99))),
		})
	}
	return t
}

// latencyRowKeys selects which per-op histograms SingleRunTable surfaces:
// the pool-level scheduling ops plus the shmem ops on the steal path.
var latencyRowKeys = []string{
	"exec", "steal", "acquire", "release",
	"shmem/fetch-add/remote", "shmem/get/remote",
	"shmem/compare-swap/remote", "shmem/fetch-add-get/remote",
}
