package pool

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sws/internal/obs"
	"sws/internal/shmem"
	"sws/internal/task"
)

var updateMetricsDoc = flag.Bool("update-metrics-doc", false,
	"rewrite docs/METRICS.md from the MetricsReference registry")

// gatherLiveMetrics runs a small multi-worker workload with a Gatherer
// attached and returns one mid-run-representative scrape.
func gatherLiveMetrics(t *testing.T) []obs.Metric {
	t.Helper()
	g := obs.NewGatherer()
	runWorld(t, 3, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		var h task.Handle
		h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if args[0] == 0 {
				return nil
			}
			for i := 0; i < 2; i++ {
				if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 11, Metrics: g, Workers: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := p.Add(h, task.Args(uint64(9))); err != nil {
				return err
			}
		}
		return p.Run()
	})
	return g.Gather()
}

// TestMetricNamingRules audits every emitted metric: sws_ prefix,
// counter/gauge suffix conventions, and presence in MetricsReference.
func TestMetricNamingRules(t *testing.T) {
	ms := gatherLiveMetrics(t)
	if len(ms) == 0 {
		t.Fatal("gather produced no metrics")
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name+"|"+m.Kind] {
			continue
		}
		seen[m.Name+"|"+m.Kind] = true
		for _, v := range LintMetric(m) {
			t.Error(v)
		}
	}
}

// TestMetricsReferenceKindsMatchEmitted cross-checks the registry's
// declared kind against what the scrape actually reported.
func TestMetricsReferenceKindsMatchEmitted(t *testing.T) {
	kinds := map[string]string{}
	for _, m := range gatherLiveMetrics(t) {
		kinds[m.Name] = m.Kind
	}
	for _, d := range MetricsReference {
		k, emitted := kinds[d.Name]
		if !emitted {
			// Liveness and failure metrics only appear on dist/faulty
			// worlds; the registry documents them anyway.
			continue
		}
		if k != d.Kind {
			t.Errorf("%s: registry says %s, scrape emitted %s", d.Name, d.Kind, k)
		}
	}
}

// TestMetricsReferenceDocInSync keeps docs/METRICS.md identical to what
// the registry generates; run with -update-metrics-doc to regenerate.
func TestMetricsReferenceDocInSync(t *testing.T) {
	var want bytes.Buffer
	if err := WriteMetricsReference(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "docs", "METRICS.md")
	if *updateMetricsDoc {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-metrics-doc): %v", path, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s is stale; regenerate with:\n  go test ./internal/pool -run TestMetricsReferenceDocInSync -update-metrics-doc", path)
	}
}

// TestMetricsReferenceNamesEveryOp: the op label's values are the shmem op
// names, and the row that documents them lists each one.
func TestMetricsReferenceNamesEveryOp(t *testing.T) {
	help := metricDocByName()["sws_shmem_remote_ops_total"].Help
	for _, op := range shmem.Ops() {
		if !regexp.MustCompile(`[ ,]` + regexp.QuoteMeta(op.String()) + `[ ,.]`).MatchString(help) {
			t.Errorf("sws_shmem_remote_ops_total does not document op=%q", op)
		}
	}
}
