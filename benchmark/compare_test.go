package main

import "testing"

func runsOf(workload, metric string, values ...float64) []suiteRun {
	var runs []suiteRun
	for _, v := range values {
		runs = append(runs, suiteRun{Workload: workload, Result: result{Correct: true, Attempted: 10,
			Metrics: map[string]metricValue{metric: {Value: v}}}})
	}
	return runs
}

func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{
		EndToEnd: []boundedMetric{
			{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
		PerLayer: []boundedMetric{{Name: "core.push_pop_ns", Unit: "ns", Better: "lower"}},
	}
	const wl = "uts_t1_local"
	for _, c := range []struct {
		name, metric string
		base, cand   []float64
		want         string
	}{
		{"throughput down 20%", "tasks_per_s", []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegression},
		{"throughput up 20%", "tasks_per_s", []float64{100, 101, 99}, []float64{120, 121, 119}, verdictImproved},
		{"throughput down 5%", "tasks_per_s", []float64{100, 101, 99}, []float64{95, 96, 94}, verdictUnchanged},
		{"latency up 20%", "job_p50_ms", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictRegression},
		{"latency down 20%", "job_p50_ms", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictImproved},
		{"same median, base spread wider than the bound", "job_p50_ms", []float64{8, 10, 12}, []float64{10, 10.1, 9.9}, verdictUnresolved},
		{"same median, candidate spread wider than the bound", "job_p50_ms", []float64{10, 10.1, 9.9}, []float64{8, 10, 12}, verdictUnresolved},
		{"a regression beyond the bound is reported despite the spread", "job_p50_ms", []float64{8, 10, 12}, []float64{13, 15, 17}, verdictRegression},
		{"a layer metric has no bound", "core.push_pop_ns", []float64{100, 100, 100}, []float64{300, 300, 300}, verdictInfo},
	} {
		rows := compareRuns(bf, runsOf(wl, c.metric, c.base...), runsOf(wl, c.metric, c.cand...))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		if rows[0].Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %.3f, spreads %.3f %.3f), want %q",
				c.name, rows[0].Verdict, rows[0].Worse, rows[0].Base.Spread, rows[0].Cand.Spread, c.want)
		}
	}
	if rows := compareRuns(bf, runsOf(wl, "tasks_per_s", 1), runsOf("bpc_fine_fabric", "tasks_per_s", 1)); len(rows) != 0 {
		t.Errorf("sides with no workload in common gave %d rows", len(rows))
	}
}

func TestFailedShare(t *testing.T) {
	runs := runsOf("serve_closed_shm", "jobs_per_s", 1, 2)
	runs[1].Result.Failed = 5
	if got := failedShare(runs)["serve_closed_shm"]; got != 0.25 {
		t.Errorf("failed share = %g, want 5/20", got)
	}
}
