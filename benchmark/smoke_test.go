package main

import "testing"

// TestSmoke runs every workload end to end at a fiftieth of the window,
// with one set-up cycle and no probes: the correctness gate, the metric
// lists and the trace writer, not the numbers.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && wl.name != "bpc_fine_fabric" && wl.name != "serve_paced_shm" {
				continue // one traced fleet and one traced serve workload keep the test short
			}
			res, err := runWorkload(runConfig{wl: wl, seed: 7, seconds: 0.3, trace: traced, smoke: true, root: root})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", wl.name, traced, def.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", wl.name, def.name, m.Value)
				}
			}
		}
	}
}
