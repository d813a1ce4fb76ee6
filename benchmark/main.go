// Command benchmark is this repository's performance benchmark: six named
// workloads on a warm fleet, seven end-to-end metrics per workload, and a
// traced mode that reports per-layer metrics and writes one span tree per
// job. See README.md in this directory and BENCHMARK.json at the root.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//	benchmark suite   [--runs N] [--noise] [--seed N] [--trace] --out FILE
//	benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "suite":
		err = suiteMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	default:
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks the run to a functional check: one set-up cycle, one
	// warm-up job, no probes.
	smoke bool
	root  string
}

// metricValue and result are the run's last output line, the contract with
// the pipeline that drives the benchmark.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(r result) {
	line, _ := json.Marshal(r) // a struct of numbers, strings and bools always marshals
	fmt.Println(string(line))
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seeds pool.Config.Seed and the tenant interleave")
	seconds := fs.Float64("seconds", 18, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and writing results/trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "functional check: one set-up cycle, one warm-up job, no probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := findWorkload(*name)
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	res, err := runWorkload(runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, root: root})
	if err != nil {
		return err
	}
	printResult(res)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d jobs failed", wl.name, res.Failed, res.Attempted)
	}
	return nil
}

// fingerprint is the machine and build identity every output carries.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport,omitempty"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// The go tool stamps the binary when it is built inside a git work
	// tree; the pipeline's checkouts are not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		fp.Commit += dirty
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s transport=%s", fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.Transport)
}

// setupCycles cold cycles give setup_s its median: one 5-10 ms set-up
// varies by tens of percent on the reference box.
const setupCycles = 15

// runWorkload performs one run: set-up cycles, a warm instance, then the
// untraced measured window — or, traced, a quarter-length traced window
// and the probes.
func runWorkload(cfg runConfig) (result, error) {
	wl := cfg.wl
	resultsDir := filepath.Join(cfg.root, "benchmark", "results")
	flightDir := filepath.Join(resultsDir, "flight")
	build := func() (env, error) { return wl.build(wl, cfg.seed, flightDir) }

	// Cold cycles: build, serve one minimal job, close. They run one after
	// another, each fully closed and its memory returned, so they do not
	// stack in peak_rss_mb. A traced run reports no set-up time and skips
	// them.
	cycles := setupCycles
	if cfg.smoke || cfg.trace {
		cycles = 0
	}
	var setups []float64
	for i := 0; i < cycles; i++ {
		start := time.Now()
		e, err := build()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		err = e.minimalJob()
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, fmt.Errorf("set-up cycle: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		debug.FreeOSMemory()
	}

	start := time.Now()
	e, err := build()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if err := e.minimalJob(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if cycles == 0 {
		setups = append(setups, time.Since(start).Seconds())
	}
	warmup := wl.warmup
	if cfg.smoke {
		warmup = 1
	}
	if err := e.warm(warmup); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	fp := machineFingerprint()
	fp.Transport = wl.transport
	fmt.Printf("workload %s seed=%d seconds=%g trace=%v | %s\n", wl.name, cfg.seed, cfg.seconds, cfg.trace, fp)
	fmt.Printf("why: %s\n", wl.why)

	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return tracedRun(cfg, e, length, fp, resultsDir)
	}
	win := e.measure(length, nil)
	cerr := e.close()
	res := endToEndResult(wl, win, median(setups))
	if win.err != nil {
		fmt.Println("FAILED:", win.err)
	}
	if cerr != nil && win.err == nil {
		return res, fmt.Errorf("close: %w", cerr)
	}
	return res, nil
}

// tracedRun is the --trace 1 half of runWorkload: a quarter-length traced
// window on the warm instance e, then the probes.
func tracedRun(cfg runConfig, e env, length time.Duration, fp fingerprint, resultsDir string) (result, error) {
	wl := cfg.wl
	rec := newRecorder()
	win := e.measure(length/4, rec)
	cerr := e.close()
	if win.err != nil {
		fmt.Println("FAILED:", win.err)
	}
	if cerr != nil && win.err == nil {
		return result{}, fmt.Errorf("close: %w", cerr)
	}
	layers := make(map[string]float64)
	if !cfg.smoke {
		var err error
		if layers, err = runProbes(); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
	}
	for k, v := range runLayerMetrics(win.layers, wl.tailPct) {
		layers[k] = v
	}
	res := result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: make(map[string]metricValue)}
	for _, def := range perLayer {
		res.Metrics[def.name] = metricValue{Value: layers[def.name], Unit: def.unit}
		fmt.Printf("%-34s %14.6g %s\n", def.name, layers[def.name], def.unit)
	}
	fmt.Printf("jobs_attempted %d jobs_failed %d  (traced window %.3fs)\n", res.Attempted, res.Failed, win.wall.Seconds())
	out := filepath.Join(resultsDir, "trace-"+wl.name+".json")
	if err := writeTrace(out, fp, cfg, rec, res.Metrics); err != nil {
		return res, err
	}
	fmt.Printf("spans: %d over %d jobs -> %s\n", len(rec.spans), rec.jobs, out)
	return res, nil
}

func throughput(w window) float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.tasks) / w.wall.Seconds()
}

// endToEndResult turns an untraced window into the seven end-to-end
// metrics, printing each by name with its unit.
func endToEndResult(wl *workload, win window, setupS float64) result {
	ok := len(win.latMS)
	lat := sortedCopy(win.latMS)
	vals := map[string]float64{"setup_s": setupS, "peak_rss_mb": peakRSSMB()}
	if ok > 0 && win.wall > 0 {
		vals["tasks_per_s"] = throughput(win)
		vals["jobs_per_s"] = float64(ok) / win.wall.Seconds()
		vals["job_p50_ms"] = percentile(lat, 50)
		vals["job_tail_ms"] = percentile(lat, wl.tailPct)
		vals["cpu_ms_per_job"] = ms(win.cpu) / float64(ok)
	}
	res := result{Correct: win.failed == 0 && ok > 0, Attempted: win.attempted, Failed: win.failed, Metrics: make(map[string]metricValue)}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metricValue{Value: vals[def.name], Unit: def.unit}
		note := ""
		if def.name == "job_tail_ms" {
			note = fmt.Sprintf("  (p%g of %d jobs, %d beyond)", wl.tailPct, ok, samplesBeyond(ok, wl.tailPct))
		}
		fmt.Printf("%-16s %14.6g %s%s\n", def.name, vals[def.name], def.unit, note)
	}
	fmt.Printf("jobs_attempted %d jobs_failed %d  (window %.3fs)\n", win.attempted, win.failed, win.wall.Seconds())
	return res
}

// traceFile is what a traced run writes next to its printed metrics.
type traceFile struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Jobs        int                    `json:"jobs"`
	SelfTime    map[string]selfTime    `json:"self_time"`
	PerLayer    map[string]metricValue `json:"per_layer"`
	Spans       []span                 `json:"spans"`
}

func writeTrace(path string, fp fingerprint, cfg runConfig, rec *recorder, layers map[string]metricValue) error {
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := self[name]
		fmt.Printf("span %-12s n=%-6d total %10.3f ms  self %10.3f ms  p50 %9.4f ms  p99 %9.4f ms\n", name, st.Count, st.TotalMS, st.SelfMS, st.P50MS, st.P99MS)
	}
	data, err := json.Marshal(traceFile{
		Fingerprint: fp, Workload: cfg.wl.name, Seed: cfg.seed, Jobs: rec.jobs,
		SelfTime: self, PerLayer: layers, Spans: rec.spans,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
