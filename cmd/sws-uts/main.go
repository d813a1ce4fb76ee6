// Command sws-uts runs the Unbalanced Tree Search benchmark (paper
// §5.2.2) under either steal protocol, or sweeps PE counts under both to
// regenerate Figure 8's six panels.
//
// Examples:
//
//	sws-uts -pes 8 -tree t1
//	sws-uts -sweep -tree small -reps 5
//	sws-uts -tree 'geo:b0=4,depth=9,seed=7'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sws/internal/bench"
	"sws/internal/cli"
	"sws/internal/inspect"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/trace"
	"sws/internal/uts"
)

func main() {
	var (
		pes       = flag.Int("pes", 8, "number of PEs for a single run")
		protoName = flag.String("protocol", "sws", "steal protocol: sws, sdc or sws-fused")
		tree      = flag.String("tree", "small", "tree preset (tiny|small|t1|tinybin) or spec 'geo:b0=4,depth=10,seed=19[,linear]' / 'bin:b0=100,q=0.2,m=4,seed=42'")
		verify    = flag.Bool("verify", false, "also run a serial traversal and compare node counts")
		sweep     = flag.Bool("sweep", false, "sweep PE counts under both protocols (Figure 8)")
		pesList   = flag.String("pes-list", "", "comma-separated PE counts for -sweep (default 2,4,8,16,32)")
		reps      = flag.Int("reps", 5, "repetitions per sweep point (paper: 10)")
		rtt       = flag.Duration("rtt", bench.DefaultLatency().BlockingRTT, "injected blocking round-trip latency")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed      = flag.Int64("seed", 1, "victim-selection seed")
		traceN    = flag.Int("trace", 0, "dump the last N scheduling events per PE after a single run")
	)
	obsf := cli.RegisterObsFlags(nil)
	poolf := cli.RegisterPoolFlags(nil)
	flag.Parse()

	params, err := parseTree(*tree)
	if err != nil {
		fatal(err)
	}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	lat := bench.DefaultLatency()
	lat.BlockingRTT = *rtt

	if *sweep {
		counts, err := cli.ParsePEList(*pesList)
		if err != nil {
			fatal(err)
		}
		cfg := bench.Fig8(params, counts, *reps)
		cfg.Base.World.Latency = lat
		cfg.Base.Pool.Seed = *seed
		poolf.Apply(&cfg.Base.Pool)
		if err := obsf.Start(); err != nil {
			fatal(err)
		}
		res, err := bench.RunSweep(cfg)
		if err != nil {
			fatal(err)
		}
		if err := obsf.Finish(nil); err != nil {
			fatal(err)
		}
		if err := cli.Emit(os.Stdout, append(res.Panels(), res.RuntimeTable()), *csv); err != nil {
			fatal(err)
		}
		return
	}

	proto, err := pool.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	wl, err := uts.NewWorkload(params)
	if err != nil {
		fatal(err)
	}
	pcfg := pool.Config{PayloadCap: uts.PayloadSize, Metrics: obsf.Gatherer()}
	pcfg.Protocol, pcfg.Seed = proto, *seed
	poolf.Apply(&pcfg)
	var tr *trace.Set
	if *traceN > 0 {
		if tr, err = trace.NewSet(*pes, *traceN); err != nil {
			fatal(err)
		}
		pcfg.Trace = tr
	} else if pcfg.Trace, err = obsf.NewTrace(*pes); err != nil {
		fatal(err)
	}
	if err := obsf.Start(); err != nil {
		fatal(err)
	}
	run, err := bench.RunOnce(bench.RunConfig{
		World: shmem.Config{NumPEs: *pes, Latency: lat},
		Pool:  pcfg,
	}, func() (bench.Workload, error) { return wl, nil })
	if err != nil {
		fatal(err)
	}
	if err := obsf.Finish(pcfg.Trace); err != nil {
		fatal(err)
	}
	if tr != nil {
		r := inspect.Build(tr.Dumps("-trace"))
		r.ShowTimeline = true
		if err := r.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if err := cli.Emit(os.Stdout, []*bench.Table{bench.SingleRunTable(params.String(), run)}, *csv); err != nil {
		fatal(err)
	}
	fmt.Printf("tree: %d nodes, %d leaves\n", wl.Nodes(), wl.Leaves())
	if *verify {
		serial, err := uts.CountSerial(params, 0)
		if err != nil {
			fatal(err)
		}
		if serial.Nodes != wl.Nodes() || serial.Leaves != wl.Leaves() {
			fatal(fmt.Errorf("verification FAILED: parallel %d/%d vs serial %d/%d nodes/leaves",
				wl.Nodes(), wl.Leaves(), serial.Nodes, serial.Leaves))
		}
		fmt.Println("verification OK: parallel traversal matches serial traversal")
	}
}

// parseTree resolves a preset name or an inline tree spec.
func parseTree(s string) (uts.Params, error) {
	if p, err := uts.Preset(strings.ToLower(s)); err == nil {
		return p, nil
	}
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return uts.Params{}, fmt.Errorf("unknown tree %q", s)
	}
	var p uts.Params
	switch kind {
	case "geo":
		p.Type = uts.Geometric
	case "bin":
		p.Type = uts.Binomial
	default:
		return p, fmt.Errorf("unknown tree type %q", kind)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, hasVal := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		if !hasVal {
			if key == "linear" {
				p.Shape = uts.ShapeLinear
				continue
			}
			return p, fmt.Errorf("bad tree attribute %q", kv)
		}
		switch key {
		case "b0":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("bad b0 %q", val)
			}
			p.B0 = f
		case "depth":
			d, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("bad depth %q", val)
			}
			p.MaxDepth = d
		case "seed":
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("bad seed %q", val)
			}
			p.Seed = int32(v)
		case "q":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("bad q %q", val)
			}
			p.Q = f
		case "m":
			m, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("bad m %q", val)
			}
			p.M = m
		default:
			return p, fmt.Errorf("unknown tree key %q", key)
		}
	}
	return p, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-uts:", err)
	os.Exit(1)
}
