package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"sws/internal/shmem"
)

// buildDist compiles the sws-dist binary once per test run.
func buildDist(t *testing.T, buildFlags ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sws-dist")
	args := append([]string{"build"}, buildFlags...)
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sws-dist: %v\n%s", err, out)
	}
	return bin
}

// lineWatcher tees a process's output into a buffer while letting tests
// wait for specific lines as they stream past.
type lineWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func newLineWatcher() *lineWatcher {
	return &lineWatcher{lines: make(chan string, 256)}
}

func (w *lineWatcher) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		w.mu.Lock()
		w.buf.WriteString(line)
		w.buf.WriteByte('\n')
		w.mu.Unlock()
		select {
		case w.lines <- line:
		default:
		}
	}
	close(w.lines)
}

func (w *lineWatcher) output() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// waitFor blocks until a line matching re streams past (returning its
// submatches) or the deadline expires.
func (w *lineWatcher) waitFor(t *testing.T, re *regexp.Regexp, timeout time.Duration) []string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-w.lines:
			if !ok {
				t.Fatalf("output closed before matching %v; output so far:\n%s", re, w.output())
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v; output so far:\n%s", re, w.output())
		}
	}
}

// calibration is one measured fault-free 4-PE run of the binary under test.
// Tests that schedule an event into a run (a kill, a join, a drain) size
// the run from it instead of assuming what a fixed depth costs: the runtime
// getting faster must not turn "mid-run" into "after the run".
type calibration struct {
	depth   int
	run     time.Duration // the run's own verified time at depth
	startup time.Duration // launch, rendezvous and teardown around it
}

// calibrate runs bin fault-free with 4 PEs (flags select the transport).
func calibrate(t *testing.T, bin string, flags ...string) calibration {
	t.Helper()
	c := calibration{depth: 16}
	args := append([]string{"-n", "4", "-depth", fmt.Sprint(c.depth)}, flags...)
	start := time.Now()
	out, err := exec.Command(bin, args...).CombinedOutput()
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("fault-free calibration run failed: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`world total: .* in (\S+) \[OK\]`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("calibration run printed no verified world total:\n%s", out)
	}
	if c.run, err = time.ParseDuration(string(m[1])); err != nil || c.run <= 0 {
		t.Fatalf("calibration run time %q: %v", m[1], err)
	}
	c.startup = wall - c.run
	return c
}

// depthFor returns the tree depth whose run lasts at least five times
// lastEvent, the latest event the test schedules into it (each depth level
// doubles the run), so every event lands with most of the work still ahead.
func (c calibration) depthFor(t *testing.T, lastEvent time.Duration) string {
	depth := c.depth
	for est := c.run; est < 5*lastEvent; est *= 2 {
		depth++
	}
	t.Logf("calibration: depth %d ran %v (+%v start-up); last event at %v -> depth %d", c.depth, c.run, c.startup, lastEvent, depth)
	return fmt.Sprint(depth)
}

// The rendezvous port lies below the kernel's ephemeral range, where no
// other process's ephemeral bind or outgoing connect can take it between
// the pick and rank 0's listen.
func TestCoordinatorPortBelowEphemeralRange(t *testing.T) {
	low, high := ephemeralPorts()
	for range 50 {
		addr, err := pickCoordinator("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		_, p, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatal(err)
		}
		if port, _ := strconv.Atoi(p); low <= port && port <= high {
			t.Fatalf("picked %s, inside the ephemeral range %d-%d", addr, low, high)
		}
	}
}

// TestDistSmoke runs a small fault-free 2-PE world end to end and expects
// a clean exit with a verified task total.
func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process smoke test in -short mode")
	}
	bin := buildDist(t)
	cmd := exec.Command(bin, "-n", "2", "-depth", "10")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free run failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("[OK]")) {
		t.Fatalf("fault-free run did not verify its task total:\n%s", out)
	}
}

// TestKillProducesFlightDump is the post-mortem acceptance path: a 4-PE
// run whose rank 1 is chaos-SIGKILLed must leave flight journals behind
// — the supervisor's kill journal plus at least one survivor's ring —
// and sws-inspect must merge them into a report naming the dead rank.
func TestKillProducesFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process kill test in -short mode")
	}
	bin := buildDist(t)
	inspect := filepath.Join(t.TempDir(), "sws-inspect")
	if out, err := exec.Command("go", "build", "-o", inspect, "../sws-inspect").CombinedOutput(); err != nil {
		t.Fatalf("building sws-inspect: %v\n%s", err, out)
	}
	// The kill lands mid-run on any box: after every rank has joined (the
	// delay clears twice the measured start-up) and with at least four
	// fifths of the work still ahead.
	cal := calibrate(t, bin)
	killAfter := 2*cal.startup + 300*time.Millisecond
	depth := cal.depthFor(t, killAfter)

	// SWS_FLIGHT_DUMP_DIR keeps the journals (CI uploads them and runs the
	// Perfetto export over this same, measured-size run).
	dumps := os.Getenv("SWS_FLIGHT_DUMP_DIR")
	if dumps == "" {
		dumps = t.TempDir()
	} else if err := os.MkdirAll(dumps, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-n", "4", "-depth", depth,
		"-op-timeout", "500ms",
		"-dead-after", "1s",
		"-flight-dir", dumps,
		"-kill-rank", "1",
		"-kill-after", killAfter.String())
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("launcher exited zero despite chaos kill (run finished before -kill-after?):\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("launcher wait error is not an exit status: %v\n%s", err, out)
	}

	// The kill must have left journals: the supervisor's (written at kill
	// time, in place of the ring that died with rank 1) and at least one
	// survivor's (dumped when the failure detector declared rank 1 dead).
	if _, err := os.Stat(filepath.Join(dumps, "flight-supervisor.jsonl")); err != nil {
		t.Errorf("missing supervisor kill journal: %v\nlauncher output:\n%s", err, out)
	}
	rankDumps, err := filepath.Glob(filepath.Join(dumps, "flight-rank*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rankDumps) == 0 {
		t.Errorf("no surviving rank dumped its flight ring\nlauncher output:\n%s", out)
	}
	if t.Failed() {
		return
	}

	// sws-inspect must merge the journals and name the dead rank.
	report, err := exec.Command(inspect, "-dir", dumps).CombinedOutput()
	if err != nil {
		t.Fatalf("sws-inspect failed: %v\n%s", err, report)
	}
	for _, want := range []string{"dead ranks: [1]", "supervisor kill journal"} {
		if !bytes.Contains(report, []byte(want)) {
			t.Errorf("inspect report missing %q:\n%s", want, report)
		}
	}
}

// TestDistSurvivesSIGKILL launches a 4-PE world, SIGKILLs rank 1 once it
// has joined, and requires the launcher to come down non-zero within the
// supervision window — with per-rank diagnostics — instead of hanging.
func TestDistSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process kill test in -short mode")
	}
	bin := buildDist(t)
	const deadAfter = time.Second
	const killDelay = 200 * time.Millisecond // after rank 1 joined
	cmd := exec.Command(bin,
		"-n", "4", "-depth", calibrate(t, bin).depthFor(t, killDelay),
		"-op-timeout", "500ms",
		"-dead-after", deadAfter.String())
	watcher := newLineWatcher()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave into one stream
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go watcher.consume(stdout)

	// Wait until rank 1 has completed the rendezvous (so the survivors
	// are not wedged waiting for it to appear), then kill it mid-run.
	m := watcher.waitFor(t, regexp.MustCompile(`^rank 1: joined world \(pid (\d+)\)$`), 30*time.Second)
	pid, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("bad pid %q: %v", m[1], err)
	}
	time.Sleep(killDelay) // let the run get under way
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 1 (pid %d): %v", pid, err)
	}
	killedAt := time.Now()

	// The launcher must exit non-zero on its own, within the failure
	// detector's horizon plus the supervision grace window.
	bound := 2*deadAfter + 10*time.Second + 20*time.Second
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(bound):
		_ = cmd.Process.Kill()
		t.Fatalf("launcher still running %v after SIGKILL of rank 1; output:\n%s", bound, watcher.output())
	}
	elapsed := time.Since(killedAt)
	out := watcher.output()
	if waitErr == nil {
		t.Fatalf("launcher exited zero despite rank 1 being SIGKILLed; output:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(waitErr, &exitErr) {
		t.Fatalf("launcher wait error is not an exit status: %v", waitErr)
	}
	if !regexp.MustCompile(`rank 1 .*(died|exited|killed)`).MatchString(out) {
		t.Errorf("missing rank 1 failure diagnostic in output:\n%s", out)
	}
	t.Logf("launcher exited %v after kill (status %v)", elapsed.Round(time.Millisecond), exitErr)
}

// TestDistChurn drives elastic membership across real process
// boundaries: a 4-PE world starts with rank 3 parked, rank 3 joins
// mid-run, rank 1 drains out mid-run, and the gathered world total must
// still be the tree's exact task count — voluntary churn is loss-free,
// so the run must finish [OK] with both transitions completed. Runs on
// both inter-process transports.
func TestDistChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process churn test in -short mode")
	}
	bin := buildDist(t)
	transports := []string{"tcp"}
	if shmem.ShmSupported() {
		transports = append(transports, "shm")
	}
	for _, tr := range transports {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			const joinAfter, drainAfter = 100 * time.Millisecond, 300 * time.Millisecond
			cmd := exec.Command(bin,
				"-transport", tr,
				"-n", "4", "-depth", calibrate(t, bin, "-transport", tr).depthFor(t, drainAfter),
				"-members", "3",
				"-join-rank", "3", "-join-after", joinAfter.String(),
				"-drain-rank", "1", "-drain-after", drainAfter.String())
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("churned run failed: %v\n%s", err, out)
			}
			for _, want := range []string{
				"rank 3: starting parked",
				"rank 3: joining the world after",
				"rank 1: draining out of the world after",
				"rank 3: joined mid-run",
				"rank 1: drained and parked",
				"[OK]",
				"membership: epoch",
			} {
				if !bytes.Contains(out, []byte(want)) {
					t.Errorf("churned run output missing %q:\n%s", want, out)
				}
			}
			for _, banned := range []string{"DEGRADED", "MISMATCH", "refused"} {
				if bytes.Contains(out, []byte(banned)) {
					t.Errorf("churned run output contains %q — churn must be loss-free and on time:\n%s", banned, out)
				}
			}
		})
	}
}

// shmSegments lists the sws-* segment files currently in the shm
// directory, so tests can assert a run added none.
func shmSegments(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(shmem.DefaultShmDir(), "sws-*"))
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return set
}

// TestShmExactlyOnce is the shm transport's cross-process accounting
// test: four real forked worker processes (the binary built with -race)
// share one mmap'd segment, and rank 0's gathered total must match the
// tree's exact task count. It also exercises stale-segment hygiene: a
// segment planted under a dead creator pid must be swept at launch, and
// the run must leave no segment files behind.
func TestShmExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process shm test in -short mode")
	}
	if !shmem.ShmSupported() {
		t.Skip("shm transport not supported on this platform")
	}
	bin := buildDist(t, "-race")

	// Plant a stale segment owned by a pid that is certainly dead.
	probe := exec.Command("true")
	if err := probe.Run(); err != nil {
		t.Skipf("running 'true': %v", err)
	}
	stale := filepath.Join(shmem.DefaultShmDir(), fmt.Sprintf("sws-%d-feedf00d", probe.Process.Pid))
	if err := os.WriteFile(stale, []byte("stale"), 0o600); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(stale) // in case the sweep fails
	before := shmSegments(t)
	delete(before, stale)

	cmd := exec.Command(bin, "-transport", "shm", "-n", "4", "-depth", "12")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("shm run failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("[OK]")) {
		t.Fatalf("shm run did not verify its task total:\n%s", out)
	}
	if !bytes.Contains(out, []byte("swept stale shm segment "+stale)) {
		t.Errorf("launcher did not report sweeping the planted stale segment:\n%s", out)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("planted stale segment survived the launch sweep: %v", err)
	}
	after := shmSegments(t)
	for p := range after {
		if !before[p] {
			t.Errorf("run leaked segment file %s", p)
		}
	}
}

// TestShmSurvivesSIGKILL mirrors TestDistSurvivesSIGKILL on the shm
// transport: SIGKILL rank 1 mid-run; the launcher must come down
// non-zero with a rank 1 diagnostic, and the segment file must still be
// unlinked (the launcher's teardown runs on the failure path too).
func TestShmSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process kill test in -short mode")
	}
	if !shmem.ShmSupported() {
		t.Skip("shm transport not supported on this platform")
	}
	bin := buildDist(t)
	before := shmSegments(t)
	const deadAfter = time.Second
	const killDelay = 200 * time.Millisecond // after rank 1 joined
	cmd := exec.Command(bin,
		"-transport", "shm",
		"-n", "4", "-depth", calibrate(t, bin, "-transport", "shm").depthFor(t, killDelay),
		"-dead-after", deadAfter.String())
	watcher := newLineWatcher()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go watcher.consume(stdout)

	m := watcher.waitFor(t, regexp.MustCompile(`^rank 1: joined world \(pid (\d+)\)$`), 30*time.Second)
	pid, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("bad pid %q: %v", m[1], err)
	}
	time.Sleep(killDelay)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 1 (pid %d): %v", pid, err)
	}
	killedAt := time.Now()

	bound := 2*deadAfter + 10*time.Second + 20*time.Second
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(bound):
		_ = cmd.Process.Kill()
		t.Fatalf("launcher still running %v after SIGKILL of rank 1; output:\n%s", bound, watcher.output())
	}
	elapsed := time.Since(killedAt)
	out := watcher.output()
	if waitErr == nil {
		t.Fatalf("launcher exited zero despite rank 1 being SIGKILLed; output:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(waitErr, &exitErr) {
		t.Fatalf("launcher wait error is not an exit status: %v", waitErr)
	}
	if !regexp.MustCompile(`rank 1 .*(died|exited|killed)`).MatchString(out) {
		t.Errorf("missing rank 1 failure diagnostic in output:\n%s", out)
	}
	after := shmSegments(t)
	for p := range after {
		if !before[p] {
			t.Errorf("failed run leaked segment file %s", p)
		}
	}
	t.Logf("launcher exited %v after kill (status %v)", elapsed.Round(time.Millisecond), exitErr)
}
