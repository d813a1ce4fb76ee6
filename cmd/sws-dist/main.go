// Command sws-dist demonstrates genuinely distributed work stealing: it
// launches one OS process per PE, each hosting its own symmetric heap.
// Steals travel over the selected inter-process transport — TCP
// (default, works across hosts) or shm (an mmap'd segment in /dev/shm:
// one-sided ops are direct atomics on shared memory, zero syscalls on
// the fast path; single host only). Rank 0 prints the global result.
//
// Workloads: a recursive binary tree (default), the UTS benchmark, or
// BPC.
//
// Examples:
//
//	sws-dist -n 4 -depth 14
//	sws-dist -n 4 -transport shm -workload uts
//	sws-dist -n 3 -protocol sdc
//	sws-dist -n 4 -workload bpc
//	sws-dist -n 4 -bind 10.0.0.7   # tcp across hosts
//
// The same binary re-executes itself in worker mode for each rank (the
// -worker flags are internal).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"sws/internal/bpc"
	"sws/internal/cli"
	"sws/internal/obs"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/uts"
)

// distHeapBytes is the per-PE symmetric heap size for distributed runs,
// shared by the tcp and shm paths (the shm segment is sized from it at
// creation, so launcher and workers must agree).
const distHeapBytes = 16 << 20

// options is the parsed command line. The launcher and every worker parse
// the same flags into it: a worker's argv is the launcher's own plus the
// per-rank flags at the end.
type options struct {
	n         int
	depth     int
	proto     pool.Protocol
	workload  string
	pool      *cli.PoolFlags
	transport string
	bind      string

	metricsAddr string

	opTimeout, deadAfter time.Duration

	flightDir string
	killRank  int
	killAfter time.Duration

	members               int
	joinRank, drainRank   int
	joinAfter, drainAfter time.Duration

	worker      bool
	rank        int
	coordinator string
	segment     string
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 4, "number of PEs (one OS process each)")
	flag.IntVar(&o.depth, "depth", 14, "binary recursion depth (2^depth leaves)")
	protoName := flag.String("protocol", "sws", "steal protocol: sws or sdc")
	flag.StringVar(&o.workload, "workload", "tree", "workload: tree, uts, or bpc")
	o.pool = cli.RegisterPoolFlags(nil)
	flag.StringVar(&o.transport, "transport", "tcp", "inter-process transport: tcp or shm (mmap'd segment, single host)")
	flag.StringVar(&o.bind, "bind", "127.0.0.1", "address the tcp transport listens on (set a routable address for multi-host runs)")

	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live metrics/pprof; rank r listens on port+r (e.g. :9090 puts rank 2 on :9092)")

	flag.DurationVar(&o.opTimeout, "op-timeout", 0, "per-operation transport deadline (0 = library default)")
	flag.DurationVar(&o.deadAfter, "dead-after", 0, "heartbeat silence before a peer is declared dead (0 = library default)")

	flag.StringVar(&o.flightDir, "flight-dir", "", "directory for flight-recorder journals, dumped on failure (empty = no dumps)")
	flag.IntVar(&o.killRank, "kill-rank", -1, "chaos: SIGKILL this worker rank after -kill-after (launcher side)")
	flag.DurationVar(&o.killAfter, "kill-after", 2*time.Second, "chaos: delay before -kill-rank fires")

	flag.IntVar(&o.members, "members", 0, "elastic membership: ranks [members, n) start parked (0 = all ranks are members)")
	flag.IntVar(&o.joinRank, "join-rank", -1, "elastic membership: this parked rank joins the world after -join-after")
	flag.DurationVar(&o.joinAfter, "join-after", 200*time.Millisecond, "delay before -join-rank begins joining")
	flag.IntVar(&o.drainRank, "drain-rank", -1, "elastic membership: this rank drains out of the world after -drain-after")
	flag.DurationVar(&o.drainAfter, "drain-after", 400*time.Millisecond, "delay before -drain-rank begins draining")

	flag.BoolVar(&o.worker, "worker", false, "internal: run as a worker process")
	flag.IntVar(&o.rank, "rank", -1, "internal: worker rank")
	flag.StringVar(&o.coordinator, "coordinator", "", "internal: rendezvous address")
	flag.StringVar(&o.segment, "segment", "", "internal: shm segment path")
	flag.Parse()
	if flag.NArg() > 0 {
		// Workers are started with flags appended to this argv; anything
		// that stops flag parsing early would hide them.
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var err error
	if o.proto, err = pool.ParseProtocol(*protoName); err != nil {
		fatal(err)
	}
	switch o.workload {
	case "tree", "uts", "bpc":
	default:
		fatal(fmt.Errorf("unknown workload %q (want tree, uts, or bpc)", o.workload))
	}
	switch o.transport {
	case "tcp":
	case "shm":
		if !shmem.ShmSupported() {
			fatal(fmt.Errorf("-transport shm is not supported on this platform"))
		}
	default:
		fatal(fmt.Errorf("unknown transport %q (want tcp or shm)", o.transport))
	}
	if err := o.validateChurn(); err != nil {
		fatal(err)
	}
	if o.worker {
		if err := runWorker(&o); err != nil {
			fatal(fmt.Errorf("rank %d: %w", o.rank, err))
		}
		return
	}
	if err := launch(&o); err != nil {
		fatal(err)
	}
}

// validateChurn checks the elastic-membership schedule, carried
// identically to every worker: how many ranks start as members (the rest
// start parked), and which rank joins or drains after a wall-clock delay.
// Each worker drives only its OWN rank's transition — the advertised state
// propagates to peers through the liveness prober, which is the same path
// a real autoscaler would use from inside the resized process.
func (o *options) validateChurn() error {
	n := o.n
	if o.members < 0 || o.members > n {
		return fmt.Errorf("-members %d out of range [0, %d]", o.members, n)
	}
	if o.joinRank >= 0 {
		if o.members == 0 {
			return fmt.Errorf("-join-rank needs -members < n: with all %d ranks live there is no parked rank to join", n)
		}
		if o.joinRank < o.members || o.joinRank >= n {
			return fmt.Errorf("-join-rank %d is not a parked rank (parked ranks are [%d, %d))", o.joinRank, o.members, n)
		}
	}
	if o.drainRank >= n {
		return fmt.Errorf("-drain-rank %d out of range [0, %d)", o.drainRank, n)
	}
	if o.drainRank >= 0 && o.members > 0 && o.drainRank >= o.members && o.drainRank != o.joinRank {
		return fmt.Errorf("-drain-rank %d starts parked and never joins; pick a member rank [0, %d)", o.drainRank, o.members)
	}
	return nil
}

// world is the description every process of the run shares (zero
// durations defer to the library defaults).
func (o *options) world() shmem.Config {
	cfg := shmem.Config{
		NumPEs:    o.n,
		HeapBytes: distHeapBytes,
		Transport: shmem.TransportTCP,
		OpTimeout: o.opTimeout,
		DeadAfter: o.deadAfter,
		FlightDir: o.flightDir,
	}
	if o.transport == "shm" {
		cfg.Transport = shmem.TransportShm
	}
	return cfg
}

// grace is how long the launcher waits, after the first worker dies, for
// the survivors to finish their degraded run before it kills stragglers:
// the failure-detector window plus generous slack for one termination
// wave and result reporting.
func (o *options) grace() time.Duration {
	da := o.deadAfter
	if da == 0 {
		da = shmem.DefaultDeadAfter
	}
	return 2*da + 10*time.Second
}

// launch spawns one worker process per rank and supervises them. A clean
// run waits for every rank and returns nil. When any worker dies
// unexpectedly the launcher does not hang on the rest: survivors get a
// bounded grace window (failure-detector horizon plus one termination
// wave) to finish their degraded run and report partial results, then
// stragglers are killed; either way the launcher reports per-rank
// diagnostics and returns an error so the process exits non-zero.
func launch(o *options) error {
	n := o.n
	if n < 1 {
		return fmt.Errorf("need at least one PE, got %d", n)
	}
	// Where the world assembles: the flag that tells a worker, and its value.
	var meetFlag, meetAt string
	switch o.transport {
	case "shm":
		// A previous launcher killed mid-run leaves its segment behind
		// (workers unlink only on clean teardown); sweep segments whose
		// creator pid is gone before adding our own.
		dir := shmem.DefaultShmDir()
		if swept, err := shmem.SweepStaleShmSegments(dir); err != nil {
			fmt.Fprintf(os.Stderr, "sws-dist: sweeping stale segments in %s: %v\n", dir, err)
		} else {
			for _, p := range swept {
				fmt.Printf("swept stale shm segment %s\n", p)
			}
		}
		seg, err := shmem.CreateShmSegment(filepath.Join(dir, shmem.ShmSegmentName()), n, distHeapBytes)
		if err != nil {
			return fmt.Errorf("creating shm segment: %w", err)
		}
		// Unlink on every launcher return path — clean runs, failed runs,
		// and chaos runs alike. Only a SIGKILLed launcher leaks the file,
		// and the next launch's sweep reclaims it.
		defer seg.Close()
		meetFlag, meetAt = "segment", seg.Path()
	default:
		coord, err := pickCoordinator(o.bind)
		if err != nil {
			return err
		}
		meetFlag, meetAt = "coordinator", coord
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	fmt.Printf("launching %d worker processes over %s (%s %s)\n", n, o.transport, meetFlag, meetAt)
	procs := make([]*exec.Cmd, n)
	type exitEvent struct {
		rank int
		err  error
	}
	exits := make(chan exitEvent, n)
	for rank := 0; rank < n; rank++ {
		// A worker is this command again: same flags, then the per-rank
		// ones, which win where they repeat one (-metrics-addr).
		args := append(append([]string{}, os.Args[1:]...), "-worker", "-rank", fmt.Sprint(rank), "-"+meetFlag, meetAt)
		if o.metricsAddr != "" {
			addr, err := rankMetricsAddr(o.metricsAddr, rank)
			if err != nil {
				return err
			}
			args = append(args, "-metrics-addr", addr)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting rank %d: %w", rank, err)
		}
		fmt.Printf("rank %d started (pid %d)\n", rank, cmd.Process.Pid)
		procs[rank] = cmd
		go func(rank int, cmd *exec.Cmd) {
			exits <- exitEvent{rank, cmd.Wait()}
		}(rank, cmd)
	}

	exited := make([]bool, n)
	errs := make([]error, n)
	killed := make([]bool, n)
	firstFail := -1
	var deadline <-chan time.Time
	var killTimer <-chan time.Time
	if o.killRank >= 0 && o.killRank < n {
		killTimer = time.After(o.killAfter)
	}
	for remaining := n; remaining > 0; {
		select {
		case <-killTimer:
			killTimer = nil
			if exited[o.killRank] {
				break
			}
			pid := procs[o.killRank].Process.Pid
			fmt.Fprintf(os.Stderr, "sws-dist: chaos: SIGKILL rank %d (pid %d) after %v\n", o.killRank, pid, o.killAfter)
			_ = procs[o.killRank].Process.Kill()
			// The killed process's in-memory flight ring dies with it; the
			// supervisor journals the kill in its place so post-mortem
			// tooling can name the dead rank even if no survivor observed
			// the death.
			if err := writeSupervisorJournal(o.flightDir, n, o.killRank, pid, o.killAfter); err != nil {
				fmt.Fprintf(os.Stderr, "sws-dist: supervisor journal: %v\n", err)
			}
		case ev := <-exits:
			remaining--
			exited[ev.rank] = true
			errs[ev.rank] = ev.err
			if ev.err != nil && firstFail < 0 {
				firstFail = ev.rank
				grace := o.grace()
				fmt.Fprintf(os.Stderr, "sws-dist: rank %d (pid %d) died: %v; waiting up to %v for survivors\n",
					ev.rank, procs[ev.rank].Process.Pid, ev.err, grace)
				deadline = time.After(grace)
			}
		case <-deadline:
			deadline = nil
			for r, cmd := range procs {
				if !exited[r] {
					killed[r] = true
					fmt.Fprintf(os.Stderr, "sws-dist: rank %d (pid %d) still running past grace window, killing\n",
						r, cmd.Process.Pid)
					_ = cmd.Process.Kill()
				}
			}
		}
	}

	var firstErr error
	for rank, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d exited: %w", rank, err)
		}
	}
	if firstErr == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "sws-dist: run failed (first failure: rank %d); per-rank status:\n", firstFail)
	for rank, cmd := range procs {
		switch {
		case killed[rank]:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): killed by supervisor after grace window\n", rank, cmd.Process.Pid)
		case errs[rank] != nil:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): %v\n", rank, cmd.Process.Pid, errs[rank])
		default:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): exited cleanly (degraded survivor)\n", rank, cmd.Process.Pid)
		}
	}
	return firstErr
}

// rankMetricsAddr offsets the metrics port by rank so each worker process
// gets its own endpoint. Port 0 (ephemeral) is passed through unchanged.
func rankMetricsAddr(base string, rank int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("bad -metrics-addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad -metrics-addr port %q: %w", portStr, err)
	}
	if port == 0 {
		return base, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank)), nil
}

// pickCoordinator picks a free port on the bind address for the
// rendezvous. It draws from [10000, low) below the kernel's ephemeral range,
// where no other process's ephemeral bind or outgoing connect can take the
// port before rank 0 listens on it, and checks it is free by binding it. A
// range that leaves no room below it (or no free port found there) falls
// back to a kernel-chosen ephemeral port.
func pickCoordinator(bind string) (string, error) {
	const lowest = 10000
	low, _ := ephemeralPorts()
	for try := 0; try < 64 && low > lowest; try++ {
		port := lowest + rand.IntN(low-lowest)
		if ln, err := net.Listen("tcp", net.JoinHostPort(bind, strconv.Itoa(port))); err == nil {
			addr := ln.Addr().String()
			ln.Close()
			return addr, nil
		}
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(bind, "0"))
	if err != nil {
		return "", fmt.Errorf("reserving coordinator port on %s: %w", bind, err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// ephemeralPorts returns the kernel's ephemeral port range, or Linux's
// default 32768-60999 when it cannot be read.
func ephemeralPorts() (low, high int) {
	low, high = 32768, 60999
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return low, high
	}
	var l, h int
	if n, _ := fmt.Sscan(string(b), &l, &h); n == 2 && 0 < l && l <= h {
		return l, h
	}
	return low, high
}

// runWorker is one PE's process: join the world, run the pool, publish
// per-rank counts into rank 0's heap, and let rank 0 report.
func runWorker(o *options) error {
	rank, n := o.rank, o.n
	var gatherer *obs.Gatherer
	if o.metricsAddr != "" {
		gatherer = obs.NewGatherer()
		srv, err := obs.Serve(o.metricsAddr, gatherer)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		// Graceful on every exit path — including a degraded survivor's —
		// so a monitor's final scrape completes and the listener never
		// outlives the process's useful life.
		defer func() { _ = srv.ShutdownTimeout(2 * time.Second) }()
		fmt.Fprintf(os.Stderr, "rank %d: metrics on http://%s/metrics\n", rank, srv.Addr())
	}
	w, err := shmem.Join(o.world(), shmem.Endpoint{Rank: rank, Coordinator: o.coordinator, Bind: o.bind, Segment: o.segment})
	if err != nil {
		return err
	}
	// Printed after the rendezvous completes: from here on, killing this
	// process leaves a world the survivors can detect and degrade around
	// (the supervision smoke test keys on this line).
	fmt.Printf("rank %d: joined world (pid %d)\n", rank, os.Getpid())
	if o.members > 0 {
		// Every process must carve the same initial membership before the
		// world runs; ranks [members, n) park until a join transitions them.
		if err := w.SetInitialMembers(o.members); err != nil {
			return err
		}
		if rank >= o.members {
			fmt.Printf("rank %d: starting parked (members 0..%d)\n", rank, o.members-1)
		}
	}
	// Each worker schedules only its own transition; peers learn of it
	// from the advertised membership word via the liveness prober.
	if o.joinRank == rank {
		time.AfterFunc(o.joinAfter, func() {
			if err := w.Live().BeginJoin(rank); err != nil {
				fmt.Fprintf(os.Stderr, "rank %d: join after %v refused: %v\n", rank, o.joinAfter, err)
				return
			}
			fmt.Printf("rank %d: joining the world after %v\n", rank, o.joinAfter)
		})
	}
	if o.drainRank == rank {
		time.AfterFunc(o.drainAfter, func() {
			if err := w.Live().BeginDrain(rank); err != nil {
				fmt.Fprintf(os.Stderr, "rank %d: drain after %v refused: %v\n", rank, o.drainAfter, err)
				return
			}
			fmt.Printf("rank %d: draining out of the world after %v\n", rank, o.drainAfter)
		})
	}
	runErr := w.Run(func(c *shmem.Ctx) error {
		// A results array on rank 0: executed-task count per rank.
		resultsAddr, err := c.Alloc(n * shmem.WordSize)
		if err != nil {
			return err
		}
		reg := pool.NewRegistry()
		var expect uint64 // expected world task total (0 = unknown)
		var seed func(p *pool.Pool) error
		pcfg := pool.Config{Protocol: o.proto, Seed: int64(n), Metrics: gatherer}
		o.pool.Apply(&pcfg)
		switch o.workload {
		case "uts":
			wl, err := uts.NewWorkload(uts.Small)
			if err != nil {
				return err
			}
			if err := wl.Register(reg); err != nil {
				return err
			}
			pcfg.PayloadCap = uts.PayloadSize
			seed = func(p *pool.Pool) error { return wl.Seed(p, c.Rank()) }
		case "bpc":
			wl, err := bpc.NewWorkload(bpc.Default())
			if err != nil {
				return err
			}
			if err := wl.Register(reg); err != nil {
				return err
			}
			expect = wl.Params.TotalTasks()
			seed = func(p *pool.Pool) error { return wl.Seed(p, c.Rank()) }
		default:
			var h task.Handle
			h = reg.MustRegister("node", func(tc *pool.TaskCtx, payload []byte) error {
				args, err := task.ParseArgs(payload, 1)
				if err != nil {
					return err
				}
				if args[0] == 0 {
					return nil
				}
				for i := 0; i < 2; i++ {
					if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
						return err
					}
				}
				return nil
			})
			expect = uint64(1)<<(o.depth+1) - 1
			seed = func(p *pool.Pool) error {
				if c.Rank() != 0 {
					return nil
				}
				return p.Add(h, task.Args(uint64(o.depth)))
			}
		}
		p, err := pool.New(c, reg, pcfg)
		if err != nil {
			return err
		}
		if err := seed(p); err != nil {
			return err
		}
		start := time.Now()
		if err := p.Run(); err != nil {
			return err
		}
		st := p.Stats()
		if st.Degraded {
			// Peers died mid-run: the cross-rank result gather (stores into
			// rank 0's heap fenced by barriers) cannot complete over partial
			// membership, so each survivor reports what it knows locally.
			fmt.Printf("rank %d (pid %d): DEGRADED survivor: executed %d tasks, %d dead PEs, ~%d tasks lost by ledger (%d written off locally) in %v\n",
				c.Rank(), os.Getpid(), st.TasksExecuted, st.DeadPEs, st.TasksLost, st.TasksWrittenOff, time.Since(start).Round(time.Millisecond))
			return nil
		}
		addr := resultsAddr + shmem.Addr(c.Rank()*shmem.WordSize)
		if err := c.Store64(0, addr, st.TasksExecuted); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		fmt.Printf("rank %d (pid %d): executed %d tasks, %d steals in, %d attempts out\n",
			c.Rank(), os.Getpid(), st.TasksExecuted, st.TasksStolen, st.StealsAttempted)
		if st.MemberDrains > 0 {
			fmt.Printf("rank %d: drained and parked (%d tasks forwarded to live PEs)\n", c.Rank(), st.TasksForwarded)
		}
		if st.MemberJoins > 0 {
			fmt.Printf("rank %d: joined mid-run and executed %d tasks\n", c.Rank(), st.TasksExecuted)
		}
		if c.Rank() == 0 {
			buf := make([]byte, n*shmem.WordSize)
			if err := c.Get(0, resultsAddr, buf); err != nil {
				return err
			}
			var total uint64
			for i := 0; i < n; i++ {
				total += binary.NativeEndian.Uint64(buf[i*shmem.WordSize:])
			}
			status := "OK"
			if expect != 0 && total != expect {
				status = fmt.Sprintf("MISMATCH (want %d)", expect)
			}
			fmt.Printf("world total: %d tasks across %d processes in %v [%s]\n",
				total, n, time.Since(start).Round(time.Millisecond), status)
			if lv := w.Live(); lv.Elastic() {
				live, joining, draining, parked := lv.MembershipCounts()
				fmt.Printf("membership: epoch %d, %d live / %d joining / %d draining / %d parked\n",
					lv.MemberEpoch(), live, joining, draining, parked)
			}
		}
		return c.Barrier()
	})
	if runErr != nil {
		// Not every fatal path routes through the pool's dump triggers: a
		// steal to a freshly-killed peer can fail with a raw transport
		// error (refused dial) before the failure detector classifies the
		// peer as dead. DumpFlight is once-guarded, so this is a no-op
		// when an earlier trigger already wrote the journal.
		if derr := w.DumpFlight("run-error: " + runErr.Error()); derr != nil {
			fmt.Fprintf(os.Stderr, "rank %d: flight dump failed: %v\n", rank, derr)
		}
	}
	return runErr
}

// writeSupervisorJournal records a chaos kill into the flight-dump
// directory as flight-supervisor.jsonl: same JSONL shape as the per-rank
// journals (rank -1 marks the supervisor), one PeerState(dead) event for
// the killed rank.
func writeSupervisorJournal(dir string, n, rank, pid int, after time.Duration) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := trace.NewFlight(-1, 4)
	f.Record(trace.PeerState, int64(rank), int64(shmem.PeerDead), 0)
	file, err := os.Create(filepath.Join(dir, "flight-supervisor.jsonl"))
	if err != nil {
		return err
	}
	reason := fmt.Sprintf("supervisor: SIGKILLed rank %d (pid %d) after %v", rank, pid, after)
	if err := f.WriteTo(file, n, reason); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-dist:", err)
	os.Exit(1)
}
