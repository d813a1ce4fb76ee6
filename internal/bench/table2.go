package bench

import (
	"fmt"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/uts"
)

// Table2Config selects the workload shapes characterized by Table 2.
type Table2Config struct {
	BPC bpc.Params
	UTS uts.Params
	// World is the world of the characterization runs.
	World shmem.Config
}

// Table2 reproduces the workload-characteristics table: total tasks,
// average task time (run time per task, ExecTime / tasks), and task size
// for BPC and UTS (paper: 2,457,901 tasks / 5 ms / 32 B and 270 B tasks /
// 0.11 µs / 48 B — the totals here reflect the scaled default workloads;
// see DESIGN.md §2).
func Table2(cfg Table2Config) (*Table, error) {
	t := &Table{
		Title:  "Table 2: benchmarking workload characteristics (measured)",
		Note:   "paper: BPC 2,457,901 tasks / 5 ms / 32 B; UTS 2.7e11 tasks / 0.00011 ms / 48 B",
		Header: []string{"benchmark", "total tasks", "avg task time", "task size"},
	}
	for _, w := range []struct {
		name       string
		payloadCap int
		f          Factory
	}{
		{cfg.BPC.String(), 24, func() (Workload, error) { return bpc.NewWorkload(cfg.BPC) }},
		{cfg.UTS.String(), uts.PayloadSize, func() (Workload, error) { return uts.NewWorkload(cfg.UTS) }},
	} {
		run, err := RunOnce(RunConfig{World: cfg.World, Pool: pool.Config{PayloadCap: w.payloadCap}}, w.f)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 %s: %w", w.name, err)
		}
		tot := run.Total()
		t.Rows = append(t.Rows, []string{
			w.name,
			fmt.Sprint(tot.TasksExecuted),
			fmtDurFine(avgTask(tot.ExecTime, tot.TasksExecuted)),
			fmt.Sprintf("%d bytes", task.MustNewCodec(w.payloadCap).SlotSize()),
		})
	}
	return t, nil
}

func avgTask(total time.Duration, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
