// Command sws-bpc runs the Bouncing Producer-Consumer benchmark (paper
// §5.2.1) under either steal protocol, or sweeps PE counts under both to
// regenerate Figure 7's six panels.
//
// Examples:
//
//	sws-bpc -pes 8 -protocol sws
//	sws-bpc -sweep -pes-list 2,4,8,16 -reps 5
//	sws-bpc -sweep -csv > fig7.csv
//	sws-bpc -paper -pes 16            # the paper's task shape (slow)
package main

import (
	"flag"
	"fmt"
	"os"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/cli"
	"sws/internal/pool"
	"sws/internal/shmem"
)

func main() {
	def := bpc.Default()
	var (
		pes       = flag.Int("pes", 8, "number of PEs for a single run")
		protoName = flag.String("protocol", "sws", "steal protocol: sws, sdc or sws-fused")
		depth     = flag.Int("depth", def.Depth, "producer chain depth (paper: 500)")
		ncons     = flag.Int("consumers", def.NConsumers, "consumers per producer (paper: 8192)")
		tc        = flag.Duration("consumer-work", def.ConsumerWork, "consumer task duration (paper: 5ms)")
		tp        = flag.Duration("producer-work", def.ProducerWork, "producer task duration (paper: 1ms)")
		paper     = flag.Bool("paper", false, "use the paper's full workload shape (overrides depth/consumers/work)")
		sweep     = flag.Bool("sweep", false, "sweep PE counts under both protocols (Figure 7)")
		pesList   = flag.String("pes-list", "", "comma-separated PE counts for -sweep (default 2,4,8,16,32)")
		reps      = flag.Int("reps", 5, "repetitions per sweep point (paper: 10)")
		rtt       = flag.Duration("rtt", bench.DefaultLatency().BlockingRTT, "injected blocking round-trip latency")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed      = flag.Int64("seed", 1, "victim-selection seed")
	)
	obsf := cli.RegisterObsFlags(nil)
	poolf := cli.RegisterPoolFlags(nil)
	flag.Parse()

	params := bpc.Params{Depth: *depth, NConsumers: *ncons, ConsumerWork: *tc, ProducerWork: *tp}
	if *paper {
		params = bpc.Paper()
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
		cfg := bench.Fig7(params, counts, *reps)
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
	pcfg := pool.Config{PayloadCap: 24, Metrics: obsf.Gatherer()}
	pcfg.Protocol, pcfg.Seed = proto, *seed
	poolf.Apply(&pcfg)
	if pcfg.Trace, err = obsf.NewTrace(*pes); err != nil {
		fatal(err)
	}
	if err := obsf.Start(); err != nil {
		fatal(err)
	}
	run, err := bench.RunOnce(bench.RunConfig{
		World: shmem.Config{NumPEs: *pes, Latency: lat},
		Pool:  pcfg,
	}, func() (bench.Workload, error) { return bpc.NewWorkload(params) })
	if err != nil {
		fatal(err)
	}
	if err := obsf.Finish(pcfg.Trace); err != nil {
		fatal(err)
	}
	if err := cli.Emit(os.Stdout, []*bench.Table{bench.SingleRunTable(params.String(), run)}, *csv); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-bpc:", err)
	os.Exit(1)
}
