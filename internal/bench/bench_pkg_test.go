package bench

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/uts"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value, with comma"},
		Rows:   [][]string{{"a", "1"}, {"bbbb", `has "quotes"`}},
	}
	var txt bytes.Buffer
	if err := tb.Fprint(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "## demo") || !strings.Contains(txt.String(), "bbbb") {
		t.Errorf("text render wrong:\n%s", txt.String())
	}
	var csv bytes.Buffer
	if err := tb.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"value, with comma"`) ||
		!strings.Contains(csv.String(), `"has ""quotes"""`) {
		t.Errorf("csv escaping wrong:\n%s", csv.String())
	}
}

// A sub-microsecond task body (a UTS node is ~150 ns) must not print as a
// zero average task time.
func TestSingleRunTableSubMicrosecondTask(t *testing.T) {
	run := stats.Run{
		Elapsed: time.Millisecond,
		PEs:     []stats.PE{{TasksExecuted: 1000, ExecTime: 154 * time.Microsecond}},
	}
	for _, row := range SingleRunTable("uts", run).Rows {
		if row[0] == "avg task time" {
			if row[1] != "154ns" {
				t.Errorf("avg task time renders %q, want 154ns", row[1])
			}
			return
		}
	}
	t.Fatal("no avg task time row")
}

func TestRunRepsValidation(t *testing.T) {
	if _, err := RunReps(RunConfig{}, nil, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestRunOnceBPC(t *testing.T) {
	params := bpc.Params{Depth: 4, NConsumers: 16, ConsumerWork: 10 * time.Microsecond, ProducerWork: 2 * time.Microsecond}
	run, err := RunOnce(RunConfig{World: shmem.Config{NumPEs: 3}, Pool: pool.Config{Protocol: pool.SWS}},
		func() (Workload, error) { return bpc.NewWorkload(params) })
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Total().TasksExecuted; got != params.TotalTasks() {
		t.Errorf("executed %d, want %d", got, params.TotalTasks())
	}
	if run.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	if run.Protocol != "sws" {
		t.Errorf("protocol label %q", run.Protocol)
	}
}

// TestRunOnceFailingFactoryLeaksNothing: a workload factory that fails must
// fail before a world exists — only World.Run releases a transport, and a
// tcp world built and never run keeps its listeners and their goroutines.
func TestRunOnceFailingFactoryLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("no workload")
	for i := 0; i < 3; i++ {
		_, err := RunOnce(RunConfig{World: shmem.Config{NumPEs: 2, Transport: shmem.TransportTCP}},
			func() (Workload, error) { return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("RunOnce = %v, want the factory's error", err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after three failed runs: the worlds were built and never closed", before, after)
	}
}

// Figure 2 must measure exactly the paper's communication counts.
func TestFig2Counts(t *testing.T) {
	tb, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"SDC successful steal":       {"6", "5"},
		"SWS successful steal":       {"3", "2"},
		"SWS-Fused successful steal": {"2", "1"},
		"SDC empty discovery":        {"3", "3"},
		"SWS empty discovery":        {"1", "1"},
		"SWS-Fused empty discovery":  {"1", "1"},
	}
	found := 0
	for _, row := range tb.Rows {
		key := row[0] + " " + row[1]
		if w, ok := want[key]; ok {
			found++
			if row[2] != w[0] || row[3] != w[1] {
				t.Errorf("%s: comms=%s blocking=%s, want %s/%s", key, row[2], row[3], w[0], w[1])
			}
		}
	}
	if found != len(want) {
		t.Errorf("found %d audit rows, want %d:\n%+v", found, len(want), tb.Rows)
	}
}

// A miniature Figure 6 run: volumes must come back with sane, positive
// latencies, and at volume 1 SWS must beat SDC (fewer round trips).
func TestFig6Mini(t *testing.T) {
	cfg := Fig6Config{
		Volumes:   []int{1, 8},
		SlotSizes: []int{24},
		Reps:      10,
		World:     shmem.Config{Latency: DefaultLatency()},
	}
	tb, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Header: volume, SDC 24B, SWS 24B.
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	sdc1 := parse(tb.Rows[0][1])
	sws1 := parse(tb.Rows[0][2])
	if sdc1 <= 0 || sws1 <= 0 {
		t.Fatalf("non-positive latencies: %v %v", sdc1, sws1)
	}
	if sws1 >= sdc1 {
		t.Errorf("at volume 1, SWS (%v) should beat SDC (%v): 2 vs 5 blocking RTTs", sws1, sdc1)
	}
}

func TestFig6Validation(t *testing.T) {
	if _, err := Fig6(Fig6Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Fig6(Fig6Config{Volumes: []int{1}, SlotSizes: []int{4}, Reps: 1}); err == nil {
		t.Error("slot smaller than header accepted")
	}
}

// A miniature sweep exercises the full Figure 7/8 pipeline.
func TestSweepMini(t *testing.T) {
	params := bpc.Params{Depth: 4, NConsumers: 24, ConsumerWork: 20 * time.Microsecond, ProducerWork: 4 * time.Microsecond}
	cfg := Fig7(params, []int{2, 4}, 2)
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.SDC.Runtime.Mean <= 0 || pt.SWS.Runtime.Mean <= 0 {
			t.Errorf("pes=%d: zero runtimes %+v %+v", pt.PEs, pt.SDC.Runtime, pt.SWS.Runtime)
		}
	}
	panels := res.Panels()
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(panels))
	}
	for _, p := range panels {
		if len(p.Rows) != 2 {
			t.Errorf("panel %q rows = %d", p.Title, len(p.Rows))
		}
	}
	rt := res.RuntimeTable()
	if len(rt.Rows) != 2 {
		t.Errorf("runtime table rows = %d", len(rt.Rows))
	}
}

// TestSweepOnSim: the figure code runs on the simulator by its World
// alone. The same sweep twice is one result, in virtual time, and its two
// reps draw different schedules, so the sweep's spread is the schedule's.
func TestSweepOnSim(t *testing.T) {
	params := bpc.Params{Depth: 4, NConsumers: 24, ConsumerWork: 20 * time.Microsecond, ProducerWork: 4 * time.Microsecond}
	cfg := Fig7(params, []int{4, 8}, 2)
	cfg.Base.World.Transport = shmem.TransportSim
	cfg.Base.World.Sim.Seed, cfg.Base.Pool.Seed = 1, 1
	var res [2]*SweepResult
	for i := range res {
		r, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("one sweep on the sim, two results:\n%+v\n%+v", res[0], res[1])
	}
	for _, pt := range res[0].Points {
		for _, pp := range []ProtoPoint{pt.SDC, pt.SWS} {
			if pp.Runtime.Min == pp.Runtime.Max && pp.Attempts.Min == pp.Attempts.Max {
				t.Errorf("pes=%d: both reps ran %v with %v steal attempts: one schedule twice", pt.PEs, pp.Runtime.Min, pp.Attempts.Min)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := RunSweep(SweepConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

// The UTS sweep preset must execute the whole tree at every point.
func TestFig8Mini(t *testing.T) {
	want, err := uts.CountSerial(uts.Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Fig8(uts.Tiny, []int{3}, 1)
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput * runtime ~ node count.
	pt := res.Points[0]
	nodes := pt.SWS.Throughput.Mean * pt.SWS.Runtime.Mean
	if nodes < float64(want.Nodes)*0.99 || nodes > float64(want.Nodes)*1.01 {
		t.Errorf("sweep executed ~%.0f tasks, want %d", nodes, want.Nodes)
	}
}

// Table 2 characterization must report the configured totals.
func TestTable2(t *testing.T) {
	cfg := Table2Config{
		BPC:   bpc.Params{Depth: 4, NConsumers: 16, ConsumerWork: 20 * time.Microsecond, ProducerWork: 4 * time.Microsecond},
		UTS:   uts.Tiny,
		World: shmem.Config{NumPEs: 2, Latency: DefaultLatency()},
	}
	tb, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	gotBPC, err := strconv.Atoi(tb.Rows[0][1])
	if err != nil {
		t.Fatal(err)
	}
	if uint64(gotBPC) != cfg.BPC.TotalTasks() {
		t.Errorf("bpc tasks %d, want %d", gotBPC, cfg.BPC.TotalTasks())
	}
	serial, err := uts.CountSerial(uts.Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotUTS, err := strconv.Atoi(tb.Rows[1][1])
	if err != nil {
		t.Fatal(err)
	}
	if uint64(gotUTS) != serial.Nodes {
		t.Errorf("uts tasks %d, want %d", gotUTS, serial.Nodes)
	}
	// 24-byte payload + 8-byte header = the paper's 32-byte BPC task.
	if tb.Rows[0][3] != "32 bytes" {
		t.Errorf("bpc task size %q", tb.Rows[0][3])
	}
}

// Ablation tables must produce a row per variant with sane runtimes.
func TestAblations(t *testing.T) {
	tables, err := Ablations(AblationConfig{World: shmem.Config{NumPEs: 2, Latency: DefaultLatency()}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3 (epochs, damping, rtt)", len(tables))
	}
	for i, tb := range tables {
		if want := []int{2, 2, 3}[i]; len(tb.Rows) != want {
			t.Errorf("%s: rows = %d, want %d", tb.Title, len(tb.Rows), want)
		}
		for _, row := range tb.Rows {
			d, err := time.ParseDuration(row[1])
			if err != nil || d <= 0 {
				t.Errorf("%s: bad runtime %q", tb.Title, row[1])
			}
		}
	}
}
