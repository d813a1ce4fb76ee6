// Package cli holds small helpers shared by the command-line tools in
// cmd/: flag parsing for PE lists, table emission and the results
// fingerprint.
package cli

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"sws/internal/bench"
	"sws/internal/uts"
)

// ParsePEList parses a comma-separated list of PE counts; an empty string
// yields the default sweep.
func ParsePEList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return bench.DefaultPECounts(), nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("cli: bad PE count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// Fingerprint is the machine and build identity a results file opens with,
// one comment line with the benchmark module's fields: nproc, GOMAXPROCS, go
// version and the commit the go tool stamped into the binary ("+dirty" for a
// modified tree; `go run` stamps none, so "unknown" — build the command
// first), then the SHA-1 kernel UTS digests ran on (uts.SHA1Kernel).
func Fingerprint() string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("# nproc=%d GOMAXPROCS=%d %s commit=%s%s sha1=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty, uts.SHA1Kernel())
}

// Emit renders tables as aligned text or CSV.
func Emit(w io.Writer, tables []*bench.Table, csv bool) error {
	for _, t := range tables {
		if csv {
			if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
				return err
			}
			if err := t.CSV(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			continue
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
