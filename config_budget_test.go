package sws_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sws"
	"sws/internal/bench"
	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/sim"
)

// TestConfigFieldBudget pins how many independently settable values the
// runtime exposes. Every field doubles what tests and benchmarks must
// cover, so a field earns its place only when two callers outside the
// tests need different values (or it is a deployment setting: an address,
// a path). To add one: raise the number here and name, in the commit, the
// two callers that differ. Anything with a single value in use is a
// constant next to the code that reads it.
func TestConfigFieldBudget(t *testing.T) {
	for _, b := range []struct {
		typ      reflect.Type
		min, max int
	}{
		{reflect.TypeOf(shmem.Config{}), 0, 9},
		{reflect.TypeOf(shmem.Endpoint{}), 4, 4},
		{reflect.TypeOf(pool.Config{}), 0, 10},
		{reflect.TypeOf(sws.Config{}), 0, 10},
		{reflect.TypeOf(core.Options{}), 0, 5},
		{reflect.TypeOf(sim.Params{}), 0, 7},
		{reflect.TypeOf(bench.RunConfig{}), 2, 2},
	} {
		n := 0
		for i := 0; i < b.typ.NumField(); i++ {
			if b.typ.Field(i).IsExported() {
				n++
			}
		}
		if n < b.min || n > b.max {
			t.Errorf("%v has %d exported fields, budget [%d, %d]", b.typ, n, b.min, b.max)
		}
	}

	// shmem.Config is the only description of a world: a second *Config
	// struct in the package is how the same knob came to be declared three
	// times.
	structs(t, "internal/shmem", func(file, name string, _ *ast.StructType) {
		if strings.HasSuffix(name, "Config") && name != "Config" {
			t.Errorf("%s declares %s: shmem.Config is the one world description", file, name)
		}
	})
	// The harnesses describe a run as a shmem.Config and a pool.Config: a
	// field of one of theirs in a harness's own config is a second copy of
	// the knob, which its repro line and its defaults then miss.
	world := []string{"PEs", "NumPEs", "Seed", "Chaos", "Choices", "MaxVirtualTime", "MaxSteps", "Kill", "Churn",
		"DeadAfter", "HeapBytes", "Latency", "Transport", "Protocol", "QueueCap", "QueueCapacity"}
	for _, dir := range []string{"internal/sim", "internal/bench"} {
		structs(t, dir, func(file, name string, st *ast.StructType) {
			if !strings.HasSuffix(name, "Config") && name != "Params" {
				return
			}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					if slices.Contains(world, id.Name) {
						t.Errorf("%s: %s.%s copies a shmem.Config, SimOptions or pool.Config field: carry the World or the Pool", file, name, id.Name)
					}
				}
			}
		})
	}
}

// structs calls fn for every exported struct type the non-test files of
// package dir declare.
func structs(t *testing.T, dir string, fn func(file, name string, st *ast.StructType)) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					if st, ok := ts.Type.(*ast.StructType); ok {
						fn(file, ts.Name.Name, st)
					}
				}
				return true
			})
		}
	}
}

// TestShmemLineBudget pins the size of the packages that do one job each.
// The paper's steal is three one-sided communications; what emulates them
// should do each job in exactly one place, and each time internal/shmem
// shrank it was by finding a job done in two: the op pipeline, the landing
// path and the wait loop, then the barrier, the give-up rule, the liveness
// transition and the tcp dial path, then the sim's lockstep hand-off
// (a scheduler goroutine beside the PEs that already take turns), then the
// sim's own barrier beside the world's one and tcp's held-back injections
// (a watermark and a flusher goroutine beside the pair's stream). It grew
// once by taking a job in: the one wait rule (shmem.Wait), which was
// pool's, because core and sdc poll by it too and its sim hand-back is the
// lockstep's. It grew again by where a private heap's bytes come from: an
// anonymous mapping that commits a page at its first touch and a finalizer
// releases (heap_linux.go), beside the Go memory a race build keeps, as the
// detector watches no other (heap_fallback.go). internal/bench writes each
// of the paper's experiments once, over one victim/thief steal loop and one
// run path. internal/core is the paper's one fixed split queue: a full ring is
// the runtime's problem (internal/pool's overflow deque), not the queue's.
// internal/core and internal/sdc shrank by their second copy of one split
// buffer: the slots, the owner's push and pop, the full-ring rule and the
// thief's block copy are internal/wsq's (wsq.Slots), and each protocol
// keeps only how a thief claims a block. A steal attempt is one journal
// record, written in one place (wsq.Slots.Attempt) for every protocol:
// internal/trace has one kind for it and internal/inspect reads it back.
// internal/term is one termination pass for every world: fault-free,
// elastic and degraded, over words of the reserved line that internal/shmem
// declares and decodes once for the prober and the leader alike. A bound is the last collapse's result rounded up to the next 50
// non-test lines, comments included, and internal/shmem's its exact count
// (`ls internal/shmem/*.go | grep -v _test.go | xargs cat | wc -l`).
// Raising one takes naming, in the commit, what came back and why it could
// not live in the place that already does that job.
func TestShmemLineBudget(t *testing.T) {
	for _, b := range []struct {
		pkg    string
		budget int
	}{
		{"internal/shmem", 5466},
		{"internal/bench", 1000},
		{"internal/core", 950},
		{"internal/sdc", 400},
		{"internal/wsq", 500},
		{"internal/term", 300},
		{"internal/pool", 2890},
		{"internal/trace", 600},
		{"internal/inspect", 750},
	} {
		files, err := filepath.Glob(b.pkg + "/*.go")
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				lines += lineCount(t, f)
			}
		}
		if lines > b.budget {
			t.Errorf("%s has %d non-test lines, budget %d", b.pkg, lines, b.budget)
		}
	}
}

// TestOneWaitRule: an empty poll iteration has one rule, shmem.Wait, as a
// busy worker's beat has one (Ctx.Yield) and simulated work one
// (Ctx.Compute). A runtime.Gosched or time.Sleep anywhere else is a loop
// choosing its own cadence, which the sim's lockstep does not see and the
// PE's yield and back-off counters do not count. Only internal/shmem, which
// implements the rule, and the programs outside the runtime (cmd,
// benchmark) may call them.
func TestOneWaitRule(t *testing.T) {
	skip := []string{"internal/shmem", "cmd", "benchmark"}
	for _, c := range bannedCalls(t, []string{"."}, skip, map[string][]string{"runtime": {"Gosched"}, "time": {"Sleep"}}) {
		t.Errorf("%s outside internal/shmem: poll through a shmem.Wait (Ctx.Compute for simulated work)", c)
	}
}

// TestOneClock: every interval the runtime times reads Ctx.Now, the
// monotonic clock on a wall-clock transport and the PE's virtual clock
// under the sim, so the time columns of a sim run sum to its virtual
// clock. A time.Now or time.Since in the pool, the queues, termination or
// the paper's experiments is a second clock the sim cannot see.
func TestOneClock(t *testing.T) {
	timed := []string{"internal/pool", "internal/core", "internal/sdc", "internal/wsq", "internal/term", "internal/bench"}
	for _, c := range bannedCalls(t, timed, nil, map[string][]string{"time": {"Now", "Since"}}) {
		t.Errorf("%s: time an interval on Ctx.Now", c)
	}
}

// bannedCalls lists, as "file:line: pkg.Fn", every reference to a banned
// function (by import path) in the non-test Go files below roots, outside
// the skipped directories.
func bannedCalls(t *testing.T, roots, skip []string, banned map[string][]string) []string {
	t.Helper()
	var calls []string
	fset := token.NewFileSet()
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if slices.Contains(skip, path) || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fns := map[string][]string{} // the file's name for a package -> its banned functions
		for _, imp := range file.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			name := pkg
			if imp.Name != nil {
				name = imp.Name.Name
			}
			fns[name] = banned[pkg]
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(fns[x.Name], sel.Sel.Name) {
					calls = append(calls, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), x.Name, sel.Sel.Name))
				}
			}
			return true
		})
		return nil
	}
	for _, root := range roots {
		if err := filepath.WalkDir(root, walk); err != nil {
			t.Fatal(err)
		}
	}
	return calls
}

// TestDocBudget pins the long documents at their line counts, so prose
// is cut before it is added: DESIGN.md describes what is (the history of a
// change goes in its CHANGES.md entry), EXPERIMENTS.md holds recipes and
// the measurements a change rests on. The CI workflow names packages, and
// tests only where it repeats them, so what a guard protects is said once,
// in its test's doc comment, not again in a YAML comment; the verify skill
// keeps commands and the symptom each reads, not what each change guarded.
// Raising a bound takes naming, in the commit, what the new lines say that
// no existing line could.
func TestDocBudget(t *testing.T) {
	const ci = ".github/workflows/ci.yml"
	for _, d := range []struct {
		file   string
		budget int
	}{
		{"DESIGN.md", 1377},
		{"EXPERIMENTS.md", 1767},
		{ci, 200},
		{".claude/skills/verify/SKILL.md", 150},
	} {
		if n := lineCount(t, d.file); n > d.budget {
			t.Errorf("%s has %d lines, budget %d", d.file, n, d.budget)
		}
	}
	src, err := os.ReadFile(ci)
	if err != nil {
		t.Fatal(err)
	}
	comments := 0
	for _, l := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "#") {
			comments++
		}
	}
	if comments > 25 {
		t.Errorf("%s has %d comment lines, budget 25: say what a test guards in its doc comment", ci, comments)
	}
}

func lineCount(t *testing.T, file string) int {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(src, []byte("\n"))
}
