// Command sws-tables regenerates every table and figure of the paper's
// evaluation in one invocation, at laptop scale, and prints them as text
// tables (or CSV). This is the harness behind EXPERIMENTS.md.
//
// Examples:
//
//	sws-tables                 # everything, quick settings
//	sws-tables -only fig6
//	sws-tables -reps 10 -pes-list 2,4,8,16,32 > experiments.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/cli"
	"sws/internal/shmem"
	"sws/internal/uts"
)

func main() {
	var (
		only    = flag.String("only", "", "restrict to one experiment: fig2, fig6, table2, fig7, fig8, ablations")
		pesList = flag.String("pes-list", "2,4,8,16", "PE counts for the fig7/fig8 sweeps")
		reps    = flag.Int("reps", 3, "repetitions per sweep point (paper: 10)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quick   = flag.Bool("quick", false, "extra-small workloads (for smoke tests)")
	)
	flag.Parse()

	counts, err := cli.ParsePEList(*pesList)
	if err != nil {
		fatal(err)
	}
	fmt.Println(cli.Fingerprint())

	bpcParams := bpc.Default()
	utsParams := uts.Small
	fig6 := bench.DefaultFig6()
	if *quick {
		bpcParams = bpc.Params{Depth: 8, NConsumers: 64, ConsumerWork: 50 * time.Microsecond, ProducerWork: 10 * time.Microsecond}
		utsParams = uts.Tiny
		fig6.Volumes = []int{1, 8, 64, 512}
		fig6.Reps = 10
	}

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	emit := func(tables ...*bench.Table) {
		if err := cli.Emit(os.Stdout, tables, *csv); err != nil {
			fatal(err)
		}
	}

	if want("fig2") {
		t, err := bench.Fig2()
		if err != nil {
			fatal(fmt.Errorf("fig2: %w", err))
		}
		emit(t)
	}
	if want("fig6") {
		t, err := bench.Fig6(fig6)
		if err != nil {
			fatal(fmt.Errorf("fig6: %w", err))
		}
		emit(t)
	}
	if want("table2") {
		world := shmem.Config{NumPEs: 4, Latency: bench.DefaultLatency()}
		t, err := bench.Table2(bench.Table2Config{BPC: bpcParams, UTS: utsParams, World: world})
		if err != nil {
			fatal(fmt.Errorf("table2: %w", err))
		}
		emit(t)
	}
	if want("fig7") {
		res, err := bench.RunSweep(bench.Fig7(bpcParams, counts, *reps))
		if err != nil {
			fatal(fmt.Errorf("fig7: %w", err))
		}
		emit(append(res.Panels(), res.RuntimeTable())...)
	}
	if want("fig8") {
		res, err := bench.RunSweep(bench.Fig8(utsParams, counts, *reps))
		if err != nil {
			fatal(fmt.Errorf("fig8: %w", err))
		}
		emit(append(res.Panels(), res.RuntimeTable())...)
	}
	if want("ablations") {
		acfg := bench.DefaultAblation()
		if *quick {
			acfg.Reps = 2
		}
		tables, err := bench.Ablations(acfg)
		if err != nil {
			fatal(fmt.Errorf("ablations: %w", err))
		}
		emit(tables...)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-tables:", err)
	os.Exit(1)
}
