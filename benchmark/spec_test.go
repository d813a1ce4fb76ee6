package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// BENCHMARK.json is the pipeline's view of this package; it must list
// exactly the workloads and metrics the code reports.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		got := bf.Workloads[i]
		if got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
		if !name.MatchString(wl.name) || len(wl.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", wl.name, len(wl.why))
		}
	}
	check := func(kind string, file []boundedMetric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(file), len(code))
		}
		for i, def := range code {
			m := file[i]
			if m.Name != def.name || m.Unit != def.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, m.Name, m.Unit, def.name, def.unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s %s: bad name, unit %q or better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s %s: bound %g", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// Each regression bound follows from the committed noise study: one and a
// half times the widest inter-quartile spread any workload showed in either
// set, rounded up to the next 5 %, and no more than the 25 % a bound may
// be. setup_s takes the 25 %: its spread is exempt, and set-up is the
// least steady thing a run times. Re-running the study is what moves a
// bound. The study must also pass its own test: set medians within bound.
func TestBoundsFollowTheNoiseStudy(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("results", "noise.json"))
	if err != nil {
		t.Fatal(err)
	}
	var study suiteFile
	if err := json.Unmarshal(data, &study); err != nil {
		t.Fatal(err)
	}
	rows := compareRuns(bf, pick(study.Runs, "A"), pick(study.Runs, "B"))
	if want := len(workloads) * len(endToEnd); len(rows) != want {
		t.Fatalf("noise.json compares %d workload x metric rows, want %d", len(rows), want)
	}
	widest := make(map[string]float64)
	for _, r := range rows {
		if r.Base.N < 5 || r.Cand.N < 5 {
			t.Errorf("%s/%s: sets of %d and %d runs, want at least 5", r.Workload, r.Metric, r.Base.N, r.Cand.N)
		}
		if math.Abs(r.Worse) > r.Bound {
			t.Errorf("%s/%s: set medians differ by %.1f%%, bound %.0f%%", r.Workload, r.Metric, 100*r.Worse, 100*r.Bound)
		}
		widest[r.Metric] = max(widest[r.Metric], r.Base.Spread, r.Cand.Spread)
	}
	for _, m := range bf.EndToEnd {
		want := min(0.25, math.Ceil(1.5*widest[m.Name]/0.05)*0.05)
		if m.Name == "setup_s" {
			want = 0.25
		}
		if math.Abs(m.Bound-want) > 1e-9 {
			t.Errorf("%s: bound %g, but the widest spread in noise.json is %.1f%%, which gives %g", m.Name, m.Bound, 100*widest[m.Name], want)
		}
	}
	for _, r := range study.Runs {
		if !r.Result.Correct || r.Result.Failed != 0 {
			t.Errorf("noise.json: %s seed %d has %d failed jobs", r.Workload, r.Seed, r.Result.Failed)
		}
	}
}
