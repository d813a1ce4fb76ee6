package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testGatherer() *Gatherer {
	g := NewGatherer()
	var h Hist
	h.RecordN(3*time.Microsecond, 100)
	snap := h.Snapshot()
	// Unregistered descriptors: the reference table is for the runtime's
	// own families.
	steals := &Desc{Name: "sws_steals_total", Kind: "counter", Unit: "attempts", Labels: "pe, outcome", Help: "Steal attempts."}
	depth := &Desc{Name: "sws_queue_local_depth", Kind: "gauge", Unit: "dimensionless (index)", Labels: "pe", Help: "Local queue depth."}
	lat := &Desc{Name: "sws_op_latency_seconds", Kind: "quantiles", Unit: "seconds", Labels: "op", Help: "Op latency.", CountHelp: "Op latency samples."}
	g.Register(func(e *Emitter) {
		e.Counter(steals, 42, L("pe", "0"), L("outcome", "ok"))
		e.Gauge(depth, 7, L("pe", "0"))
		e.Quantiles(lat, snap, L("op", "put"))
	})
	return g
}

// TestDescNamingRules: the rules every family obeys are checked on its
// descriptor, where a broken name stops the program at start-up.
func TestDescNamingRules(t *testing.T) {
	for _, tc := range []struct {
		d  Desc
		ok bool
	}{
		{Desc{Name: "sws_x_total", Kind: "counter", Unit: "tasks"}, true},
		{Desc{Name: "sws_x_tasks", Kind: "gauge", Unit: "tasks"}, true},
		{Desc{Name: "sws_x_state", Kind: "gauge", Unit: "dimensionless (enum)"}, true},
		{Desc{Name: "sws_x_seconds", Kind: "quantiles", Unit: "seconds"}, true},
		{Desc{Name: "x_total", Kind: "counter", Unit: "tasks"}, false},
		{Desc{Name: "sws_x", Kind: "counter", Unit: "tasks"}, false},
		{Desc{Name: "sws_x_depth", Kind: "gauge", Unit: "tasks"}, false},
		{Desc{Name: "sws_x_latency", Kind: "quantiles", Unit: "seconds"}, false},
	} {
		if err := tc.d.check(); (err == nil) != tc.ok {
			t.Errorf("%s (%s, %s): check = %v, want ok=%v", tc.d.Name, tc.d.Kind, tc.d.Unit, err, tc.ok)
		}
	}
	defer func(saved []*Desc) {
		if recover() == nil {
			t.Error("declaring a family twice did not panic")
		}
		families = saved
	}(families)
	NewCounter("sws_twice_total", "tasks", "", "First.")
	NewCounter("sws_twice_total", "tasks", "", "Second.")
}

// A quantiles descriptor is two reference rows, the second with the
// family's own count text, and the scrape prints those same texts.
func TestQuantilesRowsAndHelp(t *testing.T) {
	d := &Desc{Name: "sws_op_latency_seconds", Kind: "quantiles", Unit: "seconds", Labels: "op", Help: "Op latency.", CountHelp: "Op latency samples."}
	rows := d.rows()
	if len(rows) != 2 || rows[0].Labels != "op, quantile" || rows[0].Kind != "gauge" ||
		rows[1].Name != "sws_op_latency_seconds_count" || rows[1].Kind != "counter" || rows[1].Unit != "samples" || rows[1].Labels != "op" {
		t.Fatalf("rows = %+v", rows)
	}
	var sb strings.Builder
	if err := testGatherer().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP sws_op_latency_seconds Op latency.\n",
		"# HELP sws_op_latency_seconds_count Op latency samples.\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q:\n%s", want, sb.String())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := testGatherer().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE sws_steals_total counter",
		`sws_steals_total{pe="0",outcome="ok"} 42`,
		`sws_queue_local_depth{pe="0"} 7`,
		`sws_op_latency_seconds{op="put",quantile="0.5"}`,
		"sws_op_latency_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := testGatherer().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	found := false
	for _, m := range got {
		if m.Name == "sws_steals_total" && m.Labels["pe"] == "0" && m.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON output missing sws_steals_total sample:\n%s", sb.String())
	}
}

func TestServerEndpoints(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testGatherer())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "sws_steals_total") {
		t.Errorf("/metrics missing counters:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, "sws_queue_local_depth") {
		t.Errorf("/metrics.json missing gauge:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Errorf("/debug/vars missing memstats")
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles")
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(dir + "/cpu.out")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(dir + "/mem.out"); err != nil {
		t.Fatal(err)
	}
}
