package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sws/internal/obs"
)

func TestPEAdd(t *testing.T) {
	a := PE{TasksExecuted: 3, StealTime: time.Second, StealsEmpty: 1}
	b := PE{TasksExecuted: 4, StealTime: 2 * time.Second, TasksStolen: 9}
	a.Add(b)
	if a.TasksExecuted != 7 || a.StealTime != 3*time.Second || a.TasksStolen != 9 || a.StealsEmpty != 1 {
		t.Errorf("Add result wrong: %+v", a)
	}

	// Every numeric field of PE and Worker is on the one list Add and Delta
	// walk: filled with 3s, a struct adds into a zero one as itself and
	// differs from itself by nothing (but the DeadPEs watermark, which a
	// delta keeps).
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch v.Field(i).Kind() {
			case reflect.Uint64:
				v.Field(i).SetUint(3)
			case reflect.Int64: // time.Duration
				v.Field(i).SetInt(3)
			}
		}
	}
	check := func(what string, got any, want int64, except string) {
		v := reflect.ValueOf(got)
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			if name == except || (f.Kind() != reflect.Uint64 && f.Kind() != reflect.Int64) {
				continue
			}
			if n := f.Convert(reflect.TypeOf(int64(0))).Int(); n != want {
				t.Errorf("%s: %s = %d, want %d: the field is missing from numeric()", what, name, n, want)
			}
		}
	}
	var full PE
	var row Worker
	fill(reflect.ValueOf(&full).Elem())
	fill(reflect.ValueOf(&row).Elem())
	full.Workers = []Worker{row}
	var sum PE
	sum.Add(full)
	check("PE.Add", sum, 3, "")
	d := full.Delta(full)
	check("PE.Delta", d, 0, "DeadPEs")
	check("Worker delta", d.Workers[0], 0, "")
	if d.DeadPEs != 3 {
		t.Errorf("Delta lost the DeadPEs watermark: %d, want 3", d.DeadPEs)
	}
}

func TestRunTotalAndThroughput(t *testing.T) {
	r := Run{
		PEs:     []PE{{TasksExecuted: 10}, {TasksExecuted: 30}},
		Elapsed: 2 * time.Second,
	}
	if got := r.Total().TasksExecuted; got != 40 {
		t.Errorf("Total = %d, want 40", got)
	}
	if got := r.Throughput(); got != 20 {
		t.Errorf("Throughput = %v, want 20", got)
	}
	if (Run{}).Throughput() != 0 {
		t.Error("zero-elapsed throughput not 0")
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.SD-2.138) > 0.01 {
		t.Errorf("sd = %v", s.SD)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Errorf("min/max/n wrong: %+v", s)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %v", s.Median)
	}
	if math.Abs(s.RelRange-7.0/5.0) > 1e-12 {
		t.Errorf("relRange = %v", s.RelRange)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	// 1..100: interpolated percentiles of the order statistics.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if math.Abs(s.P50-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", s.P50)
	}
	if math.Abs(s.P95-95.05) > 1e-9 {
		t.Errorf("P95 = %v, want 95.05", s.P95)
	}
	if math.Abs(s.P99-99.01) > 1e-9 {
		t.Errorf("P99 = %v, want 99.01", s.P99)
	}
	if math.Abs(s.P50-s.Median) > 1e-9 {
		t.Errorf("P50 %v != Median %v", s.P50, s.Median)
	}
	for _, want := range []string{"p50=", "p95=", "p99="} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() missing %q: %s", want, s.String())
		}
	}
}

func TestPEAddLat(t *testing.T) {
	var a PE
	var h obs.Hist
	h.Record(100 * time.Nanosecond)
	x := PE{Lat: map[string]obs.HistSnap{"steal": h.Snapshot()}}
	y := PE{Lat: map[string]obs.HistSnap{"steal": h.Snapshot(), "exec": h.Snapshot()}}
	a.Add(x)
	a.Add(y)
	if got := a.Lat["steal"].Count(); got != 2 {
		t.Errorf("merged steal count = %d, want 2", got)
	}
	if got := a.Lat["exec"].Count(); got != 1 {
		t.Errorf("merged exec count = %d, want 1", got)
	}
	// Merging must not mutate the sources.
	if x.Lat["steal"].Count() != 1 || y.Lat["steal"].Count() != 1 {
		t.Error("Add mutated source Lat maps")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary not zero")
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.SD != 0 || s.Median != 3 {
		t.Errorf("single-element summary wrong: %+v", s)
	}
}

func TestDurations(t *testing.T) {
	xs := Durations([]time.Duration{time.Second, 500 * time.Millisecond})
	if xs[0] != 1 || xs[1] != 0.5 {
		t.Errorf("Durations = %v", xs)
	}
}

// Property: Min <= Median <= Max and Min <= Mean <= Max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		const eps = 1e-6
		return s.Min-eps <= s.Median && s.Median <= s.Max+eps &&
			s.Min-eps <= s.Mean && s.Mean <= s.Max+eps && s.SD >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
