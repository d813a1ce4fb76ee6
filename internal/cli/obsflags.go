package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sws/internal/inspect"
	"sws/internal/obs"
	"sws/internal/trace"
)

// ObsFlags bundles the observability flags shared by the benchmark CLIs:
// a live metrics/pprof endpoint, Perfetto trace export, and CPU/heap
// profiles. Register it once, call Start before the run and Finish after.
type ObsFlags struct {
	MetricsAddr string
	TraceOut    string
	TraceCap    int
	CPUProfile  string
	MemProfile  string

	gatherer *obs.Gatherer
	server   *obs.Server
	stopCPU  func() error
}

// RegisterObsFlags installs the shared observability flags on fs
// (flag.CommandLine when nil).
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	o := &ObsFlags{}
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve live metrics and pprof on this address (e.g. :9090); /metrics, /metrics.json, /debug/vars, /debug/pprof")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Perfetto/chrome://tracing JSON trace to this file after the run")
	fs.IntVar(&o.TraceCap, "trace-cap", 1<<16, "per-PE event capacity of the trace ring buffer")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to this file after the run")
	return o
}

// Gatherer returns the gatherer pools should register with (for
// pool.Config.Metrics), or nil when no metrics endpoint was requested.
func (o *ObsFlags) Gatherer() *obs.Gatherer {
	if o.MetricsAddr == "" {
		return nil
	}
	if o.gatherer == nil {
		o.gatherer = obs.NewGatherer()
	}
	return o.gatherer
}

// NewTrace allocates the trace set requested by -trace-out, or returns
// nil when trace export is disabled.
func (o *ObsFlags) NewTrace(npes int) (*trace.Set, error) {
	if o.TraceOut == "" {
		return nil, nil
	}
	return trace.NewSet(npes, o.TraceCap)
}

// Start begins CPU profiling and serves the metrics endpoint. Call before
// the measured run; it is a no-op for disabled features.
func (o *ObsFlags) Start() error {
	if o.CPUProfile != "" {
		stop, err := obs.StartCPUProfile(o.CPUProfile)
		if err != nil {
			return err
		}
		o.stopCPU = stop
	}
	if o.MetricsAddr != "" {
		srv, err := obs.Serve(o.MetricsAddr, o.Gatherer())
		if err != nil {
			return err
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
	}
	return nil
}

// Finish flushes profiles, writes the trace JSON (tr may be nil), and
// shuts down the metrics server. The first error wins but every teardown
// step still runs.
func (o *ObsFlags) Finish(tr *trace.Set) error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.stopCPU != nil {
		keep(o.stopCPU())
		o.stopCPU = nil
	}
	if o.MemProfile != "" {
		keep(obs.WriteHeapProfile(o.MemProfile))
	}
	if tr != nil && o.TraceOut != "" {
		keep(inspect.Build(tr.Dumps("-trace-out")).WritePerfettoFile(o.TraceOut))
		if first == nil {
			fmt.Fprintf(os.Stderr, "trace: wrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n", o.TraceOut)
		}
	}
	if o.server != nil {
		// Graceful: a scrape in flight at teardown still gets its body.
		keep(o.server.ShutdownTimeout(2 * time.Second))
		o.server = nil
	}
	return first
}
