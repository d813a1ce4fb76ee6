package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// suiteFile is what `suite` writes and `compare` reads: every run's last
// output line, tagged with the set it belongs to.
type suiteFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Seconds     float64      `json:"seconds"`
	Runs        []suiteRun   `json:"runs"`
	Summary     []compareRow `json:"summary"` // set A against set B of a noise study
}

type suiteRun struct {
	Set      string `json:"set"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// suiteMain runs every workload, each run in a process of its own so that
// peak_rss_mb and set-up are per run. With --noise it makes two sets of
// runs that alternate run by run (A B A B ...), which is how the noise
// study compares two sets of runs of one commit under the same drift of
// the machine.
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	runs := fs.Int("runs", 1, "runs per workload (and set), each with another seed")
	noise := fs.Bool("noise", false, "noise study: two interleaved sets of runs, A and B, and their comparison")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "also make a traced run per workload, run and set")
	out := fs.String("out", "", "file to write the runs to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *runs < 1 {
		return fmt.Errorf("suite needs --out and --runs >= 1")
	}
	sets := []string{"A"}
	if *noise {
		sets = []string{"A", "B"}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []bool{false} // traced?
	if *trace {
		modes = append(modes, true)
	}
	file := suiteFile{Fingerprint: machineFingerprint(), Seconds: *seconds}
	failed := false
	for i := 0; i < *runs; i++ {
		for s, set := range sets {
			runSeed := *seed + int64(i*len(sets)+s)
			for _, wl := range workloads {
				for _, traced := range modes {
					start := time.Now()
					res, err := runChild(self, wl.name, runSeed, *seconds, traced)
					if err != nil {
						return fmt.Errorf("%s seed %d: %w", wl.name, runSeed, err)
					}
					failed = failed || !res.Correct
					file.Runs = append(file.Runs, suiteRun{Set: set, Workload: wl.name, Seed: runSeed, Trace: traced, Result: res})
					fmt.Fprintf(os.Stderr, "run %d/%d set %s %-18s seed=%d trace=%v correct=%v %.1fs\n",
						i+1, *runs, set, wl.name, runSeed, traced, res.Correct, time.Since(start).Seconds())
				}
			}
		}
		if *noise {
			file.Summary = compareRuns(bf, pick(file.Runs, "A"), pick(file.Runs, "B"))
		}
		if err := writeSuite(*out, file); err != nil {
			return err
		}
	}
	if *noise {
		printCompare(file.Summary)
	}
	if failed {
		return fmt.Errorf("some runs had failed jobs; see %s", *out)
	}
	return nil
}

// runChild runs one workload in a child process and parses the result from
// the last line of its output.
func runChild(self, name string, seed int64, seconds float64, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %s", runErr, stdout)
	}
	return res, nil // a run with failed jobs exits non-zero but still reports
}

func pick(runs []suiteRun, set string) []suiteRun {
	var out []suiteRun
	for _, r := range runs {
		if r.Set == set {
			out = append(out, r)
		}
	}
	return out
}

// writeSuite writes the file as JSON with one run and one summary row per
// line, so that a committed study diffs and greps by run.
func writeSuite(path string, f suiteFile) error {
	var b bytes.Buffer
	lines := func(key string, n int, item func(i int) any) error {
		fmt.Fprintf(&b, ",\n%q: [", key)
		for i := 0; i < n; i++ {
			line, err := json.Marshal(item(i))
			if err != nil {
				return err
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
			b.Write(line)
		}
		b.WriteString("\n]")
		return nil
	}
	fp, err := json.Marshal(f.Fingerprint)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\"fingerprint\": %s,\n\"seconds\": %g", fp, f.Seconds)
	if err := lines("runs", len(f.Runs), func(i int) any { return f.Runs[i] }); err != nil {
		return err
	}
	if err := lines("summary", len(f.Summary), func(i int) any { return f.Summary[i] }); err != nil {
		return err
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
