package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareRow is one workload x metric: each side's median and quartiles,
// how much worse the candidate's median is as a share of the base's, the
// bound BENCHMARK.json fixes for the metric, and the verdict.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Base     sideSum `json:"base"`
	Cand     sideSum `json:"cand"`
	// Worse is positive when the candidate is worse, whatever the metric's
	// better-direction.
	Worse   float64 `json:"worse"`
	Bound   float64 `json:"bound,omitempty"`
	Verdict string  `json:"verdict"`
}

type sideSum struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
}

func summarize(xs []float64) sideSum {
	q1, q3 := quartiles(xs)
	return sideSum{N: len(xs), Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs)}
}

// Verdicts. A regression beyond the bound is reported even when the spread
// is wide; otherwise a spread wider than the bound on either side means
// the runs cannot tell, which is "unresolved", never "unchanged".
const (
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictInfo       = "info" // per-layer metrics have no bound
)

func judge(base, cand sideSum, better string, bound float64) (worse float64, verdict string) {
	if base.Median != 0 {
		worse = (cand.Median - base.Median) / math.Abs(base.Median)
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case bound == 0:
		return worse, verdictInfo
	case worse > bound:
		return worse, verdictRegression
	case base.Spread > bound || cand.Spread > bound:
		return worse, verdictUnresolved
	case worse < -bound:
		return worse, verdictImproved
	}
	return worse, verdictUnchanged
}

// compareRuns builds the rows for every workload and metric both sides
// have, in the order of the workload table and of BENCHMARK.json.
func compareRuns(bf *benchmarkFile, base, cand []suiteRun) []compareRow {
	values := func(runs []suiteRun, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	defs := append(append([]boundedMetric(nil), bf.EndToEnd...), bf.PerLayer...)
	var rows []compareRow
	for _, wl := range workloads {
		for _, def := range defs {
			b, c := values(base, wl.name, def.Name), values(cand, wl.name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			row := compareRow{Workload: wl.name, Metric: def.Name, Unit: def.Unit, Better: def.Better, Base: summarize(b), Cand: summarize(c), Bound: def.Bound}
			row.Worse, row.Verdict = judge(row.Base, row.Cand, def.Better, def.Bound)
			rows = append(rows, row)
		}
	}
	return rows
}

// failedShare is failed jobs over attempted jobs, per workload.
func failedShare(runs []suiteRun) map[string]float64 {
	att, fail := make(map[string]float64), make(map[string]float64)
	for _, r := range runs {
		att[r.Workload] += float64(r.Result.Attempted)
		fail[r.Workload] += float64(r.Result.Failed)
	}
	for w := range att {
		if att[w] > 0 {
			fail[w] /= att[w]
		}
	}
	return fail
}

func printCompare(rows []compareRow) {
	fmt.Printf("%-18s %-30s %-6s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "base median", "spread", "cand median", "spread", "worse", "bound", "verdict")
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Printf("%-18s %-30s %-6s %13.6g %6.1f%% %13.6g %6.1f%% %+7.1f%% %6s  %s\n",
			r.Workload, r.Metric, r.Unit, r.Base.Median, 100*r.Base.Spread, r.Cand.Median, 100*r.Cand.Spread, 100*r.Worse, bound, r.Verdict)
	}
}

// compareMain compares two suite files, base then candidate. It exits
// non-zero on a regression beyond a metric's bound or a larger share of
// failed jobs.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BASE.json CANDIDATE.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	var files []suiteFile
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var f suiteFile
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %d runs of %gs | %s\n", path, len(f.Runs), f.Seconds, f.Fingerprint)
		files = append(files, f)
	}
	base, cand := files[0].Runs, files[1].Runs
	rows := compareRuns(bf, base, cand)
	if len(rows) == 0 {
		return fmt.Errorf("the two sides share no workload and metric")
	}
	printCompare(rows)
	var bad []string
	for _, r := range rows {
		if r.Verdict == verdictRegression {
			bad = append(bad, fmt.Sprintf("%s/%s worse by %.1f%% (bound %.0f%%)", r.Workload, r.Metric, 100*r.Worse, 100*r.Bound))
		}
	}
	fb, fc := failedShare(base), failedShare(cand)
	for w, share := range fc {
		if share > fb[w] {
			bad = append(bad, fmt.Sprintf("%s failed share %.4f, was %.4f", w, share, fb[w]))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println("REGRESSION:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d regressions", len(bad))
	}
	return nil
}
