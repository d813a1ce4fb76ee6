package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sws/internal/bpc"
	"sws/internal/obs"
	"sws/internal/pool"
	"sws/internal/shmem"
)

// newTestService builds a small local-transport service. mutate may
// adjust the options before New.
func newTestService(t *testing.T, mutate func(*Options)) *Service {
	t.Helper()
	opt := Options{
		World: shmem.Config{NumPEs: 2, HeapBytes: 4 << 20},
		Pool:  pool.Config{Seed: 1},
	}
	if mutate != nil {
		mutate(&opt)
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// graphSpec is a deterministic graph job: depth levels, breadth
// children, no spin. Task count is exact.
func graphSpec(tenant string, depth, breadth int) JobSpec {
	return JobSpec{Tenant: tenant, Kind: KindGraph, Graph: &GraphSpec{Depth: depth, Breadth: breadth}}
}

// gateSpec occupies the fleet for roughly the given duration: a 2-task
// chain, each task spinning half of it. Tests use it to build queue
// depth deterministically while the dispatcher is busy.
func gateSpec(tenant string, d time.Duration) JobSpec {
	return JobSpec{Tenant: tenant, Kind: KindGraph,
		Graph: &GraphSpec{Depth: 1, Breadth: 1, SpinUS: int(d / (2 * time.Microsecond))}}
}

// submitAndWait runs one job to a terminal state.
func submitAndWait(t *testing.T, s *Service, spec JobSpec) JobStatus {
	t.Helper()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, ok := s.Wait(st.ID, 30*time.Second)
	if !ok {
		t.Fatalf("job %s vanished", st.ID)
	}
	if !st.Terminal() {
		t.Fatalf("job %s not terminal after 30s: %+v", st.ID, st)
	}
	return st
}

// A graph job reports its exact task count through per-job stats, and
// repeated jobs get consecutive fleet epochs with no transport
// re-attach.
func TestServeGraphJobs(t *testing.T) {
	s := newTestService(t, nil)
	want := GraphSpec{Depth: 4, Breadth: 2}.Tasks() // 31
	for i := 1; i <= 3; i++ {
		st := submitAndWait(t, s, graphSpec("default", 4, 2))
		if st.State != StateDone {
			t.Fatalf("job %d failed: %s", i, st.Error)
		}
		if st.TasksExecuted != want {
			t.Fatalf("job %d executed %d tasks, want %d", i, st.TasksExecuted, want)
		}
		if st.JobSeq != uint64(i) {
			t.Fatalf("job %d ran under epoch %d", i, st.JobSeq)
		}
	}
	if got := s.Fleet().World().Attaches(); got != 2 {
		t.Fatalf("attaches = %d, want 2 (warm start)", got)
	}
}

// TestGraphNodeAllocs pins an interior graph node at zero allocations: the
// depth is decoded in place and every child is spawned from the node's own
// payload with the depth rewritten, not from a fresh argument slice. A
// payload of the wrong length still fails with task.ParseArgs's error.
func TestGraphNodeAllocs(t *testing.T) {
	s := &Service{}
	s.cur.Store(&activeWork{graph: &graphWork{breadth: 2, depth: 1}})
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 1, HeapBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	allocs := -1.0
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		h, err := reg.Register("serve.graph.node", s.runGraphNode)
		if err != nil {
			return err
		}
		s.graphH.Store(uint32(h))
		// The measurement needs a live TaskCtx, so it runs inside a task: the
		// probe expands a depth-1 node over and over (each run rewrites the
		// payload, so each restores it), and the job then runs the leaves.
		probe := reg.MustRegister("probe", func(tc *pool.TaskCtx, _ []byte) error {
			if err := s.runGraphNode(tc, make([]byte, 3)); err == nil || !strings.Contains(err.Error(), "payload is 3 bytes") {
				return fmt.Errorf("3-byte payload: err = %v, want task.ParseArgs's length error", err)
			}
			var buf [8]byte
			var runErr error
			allocs = testing.AllocsPerRun(100, func() {
				binary.LittleEndian.PutUint64(buf[:], 1)
				if err := s.runGraphNode(tc, buf[:]); err != nil {
					runErr = err
				}
			})
			return runErr
		})
		p, err := pool.New(c, reg, pool.Config{})
		if err != nil {
			return err
		}
		if err := p.Add(probe, nil); err != nil {
			return err
		}
		return p.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("one interior graph node allocates %.2f objects, want 0", allocs)
	}
}

// UTS and BPC specs run through the same delegating task functions; BPC
// totals are exact, UTS totals are tree-dependent but non-zero and
// stable across runs of the same preset.
func TestServeUTSAndBPCJobs(t *testing.T) {
	s := newTestService(t, nil)

	bspec := JobSpec{Kind: KindBPC, BPC: &BPCSpec{Depth: 4, NConsumers: 8, ConsumerWorkUS: 1, ProducerWorkUS: 1}}
	st := submitAndWait(t, s, bspec)
	if st.State != StateDone {
		t.Fatalf("bpc job failed: %s", st.Error)
	}
	wantBPC := bpc.Params{Depth: 4, NConsumers: 8}.TotalTasks()
	if st.TasksExecuted != wantBPC {
		t.Fatalf("bpc executed %d tasks, want %d", st.TasksExecuted, wantBPC)
	}

	u1 := submitAndWait(t, s, JobSpec{Kind: KindUTS, UTS: &UTSSpec{Tree: "tiny"}})
	if u1.State != StateDone {
		t.Fatalf("uts job failed: %s", u1.Error)
	}
	if u1.TasksExecuted == 0 {
		t.Fatal("uts job executed zero tasks")
	}
	u2 := submitAndWait(t, s, JobSpec{Kind: KindUTS, UTS: &UTSSpec{Tree: "tiny"}})
	if u2.TasksExecuted != u1.TasksExecuted {
		t.Fatalf("same uts tree traversed %d then %d nodes — per-job isolation broken", u1.TasksExecuted, u2.TasksExecuted)
	}
}

// A BPC job wider than a PE's split queue (9000 consumers against the
// default 8192 slots) completes on a default 2-PE fleet, and the fleet
// stays healthy for the next job: a producer's spawns past the full queue
// wait in its owner's private deque rather than stalling the fleet.
func TestServeBPCWiderThanQueue(t *testing.T) {
	s := newTestService(t, nil)
	wide := BPCSpec{Depth: 2, NConsumers: 9000}
	st := submitAndWait(t, s, JobSpec{Kind: KindBPC, BPC: &wide})
	if st.State != StateDone {
		t.Fatalf("9000-consumer bpc job failed: %s", st.Error)
	}
	if want := (bpc.Params{Depth: 2, NConsumers: 9000}).TotalTasks(); st.TasksExecuted != want {
		t.Fatalf("bpc executed %d tasks, want %d", st.TasksExecuted, want)
	}
	next := submitAndWait(t, s, graphSpec("default", 4, 2))
	if next.State != StateDone {
		t.Fatalf("job after the wide bpc failed: %s", next.Error)
	}
}

// Admission control: beyond MaxInflight the service answers with the
// typed inflight-limit rejection, and a tenant at its queue bound gets
// tenant-quota while other tenants still get through.
func TestServeAdmissionControl(t *testing.T) {
	s := newTestService(t, func(o *Options) { o.MaxInflight = 3; o.TenantQueue = 1 })

	if _, err := s.Submit(gateSpec("gate", 200*time.Millisecond)); err != nil {
		t.Fatalf("gate: %v", err)
	}
	if _, err := s.Submit(graphSpec("a", 2, 2)); err != nil {
		t.Fatalf("tenant a first job: %v", err)
	}
	// Tenant a's queue is full (1 queued): quota rejection.
	_, err := s.Submit(graphSpec("a", 2, 2))
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != ReasonTenantQuota {
		t.Fatalf("tenant-quota submit: got %v, want AdmissionError(%s)", err, ReasonTenantQuota)
	}
	// Another tenant still gets through (inflight 2 -> 3).
	if _, err := s.Submit(graphSpec("b", 2, 2)); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	// Global bound reached: inflight-limit rejection even for a fresh
	// tenant.
	_, err = s.Submit(graphSpec("c", 2, 2))
	if !errors.As(err, &adm) || adm.Reason != ReasonInflight {
		t.Fatalf("inflight submit: got %v, want AdmissionError(%s)", err, ReasonInflight)
	}
}

// Fair queuing: with tenant a's queue deep and tenant b submitting one
// job, round-robin must run b's job after at most one of a's — b cannot
// be starved behind a's whole backlog.
func TestServeTenantFairness(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.Submit(gateSpec("gate", 200*time.Millisecond)); err != nil {
		t.Fatalf("gate: %v", err)
	}
	var aIDs []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(graphSpec("a", 2, 2))
		if err != nil {
			t.Fatalf("tenant a job %d: %v", i, err)
		}
		aIDs = append(aIDs, st.ID)
	}
	bst, err := s.Submit(graphSpec("b", 2, 2))
	if err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	for _, id := range append(aIDs, bst.ID) {
		if st, ok := s.Wait(id, 30*time.Second); !ok || st.State != StateDone {
			t.Fatalf("job %s: ok=%v state=%+v", id, ok, st)
		}
	}
	bSeq, _ := s.Status(bst.ID)
	aSecond, _ := s.Status(aIDs[1])
	if bSeq.JobSeq > aSecond.JobSeq {
		t.Fatalf("tenant b's job ran under epoch %d, after tenant a's second job (epoch %d) — round-robin starved b",
			bSeq.JobSeq, aSecond.JobSeq)
	}
}

// The acceptance bar: >= 100 back-to-back jobs through the HTTP gateway
// against a 4-PE fleet, concurrent tenants, exactly-once per-job
// accounting on every job, and zero transport re-attach (the world's
// attach counter stays at NumPEs). CI runs this under -race.
func TestServeHundredJobsThroughGateway(t *testing.T) {
	const pes, jobs = 4, 100
	s := newTestService(t, func(o *Options) { o.World.NumPEs = pes })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	want := GraphSpec{Depth: 4, Breadth: 2}.Tasks() // 31
	var mu sync.Mutex
	seqs := make(map[uint64]string)
	var bad []string
	rep, err := RunLoad(context.Background(), &Client{Base: srv.URL, HTTP: srv.Client()}, LoadOptions{
		Jobs:        jobs,
		Concurrency: 4,
		Tenants:     []string{"alpha", "beta"},
		Spec:        graphSpec("", 4, 2),
		OnDone: func(st JobStatus) {
			mu.Lock()
			defer mu.Unlock()
			if st.TasksExecuted != want {
				bad = append(bad, fmt.Sprintf("%s executed %d tasks, want %d", st.ID, st.TasksExecuted, want))
			}
			if prev, dup := seqs[st.JobSeq]; dup {
				bad = append(bad, fmt.Sprintf("%s and %s share epoch %d", prev, st.ID, st.JobSeq))
			}
			seqs[st.JobSeq] = st.ID
		},
	})
	if err != nil {
		t.Fatalf("load run: %v\nreport: %v", err, rep)
	}
	if rep.Jobs != jobs || rep.Failed != 0 {
		t.Fatalf("report %v: want %d jobs, 0 failed", rep, jobs)
	}
	if len(bad) > 0 {
		t.Fatalf("per-job accounting violations:\n%s", strings.Join(bad, "\n"))
	}
	if got := s.Fleet().World().Attaches(); got != pes {
		t.Fatalf("attaches after %d jobs = %d, want %d (transport re-attached between jobs)", jobs, got, pes)
	}
	if got := s.Fleet().Seq(); got != jobs {
		t.Fatalf("fleet served %d epochs, want %d", got, jobs)
	}
	if rep.TasksExecuted != uint64(jobs)*want {
		t.Fatalf("load report counts %d tasks, want %d", rep.TasksExecuted, uint64(jobs)*want)
	}
}

// The HTTP error surface: invalid specs are 400, unknown jobs 404,
// admission backpressure a typed 429 with Retry-After and a reason the
// client can parse.
func TestServeHTTPErrors(t *testing.T) {
	s := newTestService(t, func(o *Options) { o.MaxInflight = 1 })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := c.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"kind":"no-such-kind"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", resp.StatusCode)
	}
	resp, err := c.Get(srv.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// Fill the single inflight slot, then expect typed backpressure.
	gate, err := json.Marshal(gateSpec("gate", 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(string(gate)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gate: status %d, want 202", resp.StatusCode)
	}
	resp = post(`{"kind":"graph"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over limit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if ae.Reason != ReasonInflight {
		t.Fatalf("429 reason %q, want %q", ae.Reason, ReasonInflight)
	}
}

// Close drains: jobs accepted before Close still run to completion, and
// submissions after Close get ErrClosed.
func TestServeCloseDrains(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.Submit(gateSpec("gate", 100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(graphSpec("default", 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %s after close: ok=%v %+v — close must drain accepted jobs", id, ok, st)
		}
	}
	if _, err := s.Submit(graphSpec("default", 2, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

var updateMetricsDoc = flag.Bool("update-metrics-doc", false,
	"rewrite docs/METRICS.md from the registered obs descriptors")

const metricsDocPath = "../../docs/METRICS.md"

// TestMetricsReferenceDocInSync keeps docs/METRICS.md identical to what the
// descriptors generate (this package links every one: serve's, pool's,
// shmem's); run with -update-metrics-doc to regenerate.
func TestMetricsReferenceDocInSync(t *testing.T) {
	var want bytes.Buffer
	if err := obs.WriteReference(&want); err != nil {
		t.Fatal(err)
	}
	if *updateMetricsDoc {
		if err := os.WriteFile(metricsDocPath, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(metricsDocPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-metrics-doc): %v", metricsDocPath, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s is stale; regenerate with:\n  go test ./internal/serve -run TestMetricsReferenceDocInSync -update-metrics-doc", metricsDocPath)
	}
}

// TestScrapeHelpMatchesReference: what an operator reads on /metrics is
// what the reference says. Every sample a 2-PE service scrapes — the serve,
// membership, pool, liveness and shmem families — carries the kind, the
// label keys and, word for word, the description of its docs/METRICS.md row.
func TestScrapeHelpMatchesReference(t *testing.T) {
	doc, err := os.ReadFile(metricsDocPath)
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ kind, labels, help string }
	rows := map[string]row{}
	for _, line := range strings.Split(string(doc), "\n") {
		if cells := strings.Split(line, " | "); len(cells) == 5 && strings.HasPrefix(line, "| `") {
			rows[strings.Trim(cells[0], "|` ")] = row{cells[1], cells[3], strings.TrimSuffix(cells[4], " |")}
		}
	}
	if len(rows) != 42 {
		t.Fatalf("parsed %d reference rows, want 42", len(rows))
	}

	g := obs.NewGatherer()
	s := newTestService(t, func(o *Options) {
		o.Gatherer = g
		o.World.NumPEs, o.MinPEs = 3, 2
	})
	submitAndWait(t, s, graphSpec("alpha", 4, 2))
	for _, live := range []int{2, 3} { // a drain and a join: the membership families
		if err := s.Resize(live); err != nil {
			t.Fatal(err)
		}
		submitAndWait(t, s, graphSpec("beta", 4, 2))
	}
	seen := map[string]bool{}
	for _, m := range g.Gather() {
		r, ok := rows[m.Name]
		if !ok {
			t.Errorf("%s is scraped but has no reference row", m.Name)
			continue
		}
		keys := make([]string, len(m.Labels))
		for i, l := range m.Labels {
			keys[i] = l.K
		}
		if got := strings.Join(keys, ", "); (m.Help != r.help || m.Kind != r.kind || got != r.labels) && !seen[m.Name+m.Help] {
			t.Errorf("%s: scrape says %s {%s} %q, reference says %s {%s} %q", m.Name, m.Kind, got, m.Help, r.kind, r.labels, r.help)
			seen[m.Name+m.Help] = true // once per family and text
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if _, family := rows[name]; !family {
			delete(seen, name)
		}
	}
	if len(seen) < 40 {
		t.Errorf("the scrape covered %d of the 46 families", len(seen))
	}
}

// The sws_serve_* families carry live values.
func TestServeMetricsLint(t *testing.T) {
	g := obs.NewGatherer()
	s := newTestService(t, func(o *Options) { o.Gatherer = g })
	submitAndWait(t, s, graphSpec("alpha", 3, 2))
	submitAndWait(t, s, graphSpec("beta", 3, 2))

	byName := map[string]float64{}
	for _, m := range g.Gather() {
		byName[m.Name] += m.Value
	}
	for name, want := range map[string]float64{
		"sws_serve_jobs_submitted_total":      2,
		"sws_serve_jobs_completed_total":      2,
		"sws_serve_fleet_attaches_total":      2, // NumPEs
		"sws_serve_job_tasks_total":           2 * 15,
		"sws_serve_job_latency_seconds_count": 3 * 2, // three stages x two jobs
		"sws_serve_jobs_rejected_total":       0,
		"sws_serve_inflight_jobs":             0,
	} {
		got, ok := byName[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if got != want {
			t.Errorf("metric %s = %g, want %g", name, got, want)
		}
	}
	if _, ok := byName["sws_serve_job_latency_seconds"]; !ok {
		t.Error("latency quantiles not emitted")
	}
}

// A queued job whose DeadlineMS lapses before dispatch is rejected at
// dispatch time: terminal "expired" state, typed deadline reason, 504
// over HTTP — and it never holds a fleet epoch.
func TestServeDeadlineExpiresQueuedJob(t *testing.T) {
	s := newTestService(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Occupy the fleet long enough that the deadlined job cannot dispatch
	// in time.
	if _, err := s.Submit(gateSpec("gate", 200*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	spec := graphSpec("late", 2, 2)
	spec.DeadlineMS = 20
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit with future deadline rejected: %v", err)
	}
	st, ok := s.Wait(st.ID, 30*time.Second)
	if !ok || st.State != StateExpired {
		t.Fatalf("deadlined job: ok=%v state=%+v, want %s", ok, st, StateExpired)
	}
	if st.JobSeq != 0 || st.TasksExecuted != 0 {
		t.Fatalf("expired job held epoch %d and executed %d tasks — it must never dispatch", st.JobSeq, st.TasksExecuted)
	}
	if !strings.Contains(st.Error, ReasonDeadline) {
		t.Fatalf("expired job error %q does not carry reason %q", st.Error, ReasonDeadline)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired job served with %d, want 504", resp.StatusCode)
	}

	// A generous deadline does not reject: the job still runs.
	spec = graphSpec("ontime", 2, 2)
	spec.DeadlineMS = 60_000
	if st := submitAndWait(t, s, spec); st.State != StateDone {
		t.Fatalf("job with slack deadline: %+v", st)
	}

	// Negative deadlines are validation errors, not admission control.
	spec.DeadlineMS = -1
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

// The resize endpoint shrinks and regrows the warm fleet between job
// epochs: membership counts and epoch move, jobs before and after run
// exactly-once, parked PEs do no work, and out-of-range targets are 400s.
func TestServeFleetResize(t *testing.T) {
	g := obs.NewGatherer()
	s := newTestService(t, func(o *Options) {
		o.World.NumPEs = 4
		o.MinPEs = 2
		o.Gatherer = g
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	resize := func(pes int) (*http.Response, FleetStatus) {
		t.Helper()
		resp, err := c.Post(srv.URL+"/v1/fleet/resize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"pes":%d}`, pes)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fs FleetStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
				t.Fatal(err)
			}
		}
		return resp, fs
	}

	want := GraphSpec{Depth: 4, Breadth: 2}.Tasks()
	if st := submitAndWait(t, s, graphSpec("a", 4, 2)); st.TasksExecuted != want {
		t.Fatalf("pre-resize job executed %d tasks, want %d", st.TasksExecuted, want)
	}

	resp, fs := resize(2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resize to 2: status %d", resp.StatusCode)
	}
	if fs.Live != 2 || fs.Parked != 2 || fs.Epoch == 0 {
		t.Fatalf("after shrink: %+v, want live=2 parked=2 epoch>0", fs)
	}
	// Lifetime counters include the pre-resize job, so assert on the
	// post-shrink job's delta: parked ranks must add nothing.
	before := [2]uint64{s.Fleet().Pool(2).Stats().TasksExecuted, s.Fleet().Pool(3).Stats().TasksExecuted}
	if st := submitAndWait(t, s, graphSpec("a", 4, 2)); st.TasksExecuted != want {
		t.Fatalf("post-shrink job executed %d tasks, want %d", st.TasksExecuted, want)
	}
	for i, rank := range []int{2, 3} {
		if got := s.Fleet().Pool(rank).Stats().TasksExecuted - before[i]; got != 0 {
			t.Fatalf("parked rank %d executed %d tasks during the shrunk job", rank, got)
		}
	}

	if resp, fs = resize(4); resp.StatusCode != http.StatusOK || fs.Live != 4 || fs.Parked != 0 {
		t.Fatalf("regrow: status %d, %+v", resp.StatusCode, fs)
	}
	if st := submitAndWait(t, s, graphSpec("a", 4, 2)); st.TasksExecuted != want {
		t.Fatalf("post-regrow job executed %d tasks, want %d", st.TasksExecuted, want)
	}

	// Floor and ceiling are 400s, not crashes.
	if resp, _ := resize(1); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resize below MinPEs: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := resize(5); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resize past world size: status %d, want 400", resp.StatusCode)
	}

	// GET /v1/fleet mirrors the same snapshot.
	gr, err := c.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	var snap FleetStatus
	if err := json.NewDecoder(gr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Live != 4 || snap.MaxPEs != 4 || snap.MinPEs != 2 {
		t.Fatalf("GET /v1/fleet: %+v", snap)
	}

	// The membership family reflects the churn.
	byName := map[string]float64{}
	for _, m := range g.Gather() {
		byName[m.Name] += m.Value
	}
	if byName["sws_membership_drains_total"] != 2 || byName["sws_membership_joins_total"] != 2 {
		t.Fatalf("membership counters: drains=%g joins=%g, want 2/2",
			byName["sws_membership_drains_total"], byName["sws_membership_joins_total"])
	}
	if byName["sws_membership_epoch"] == 0 {
		t.Fatal("membership epoch still 0 after resizes")
	}
}

// LivePEs starts the fleet partially parked: the service comes up with
// surplus capacity held in reserve and can grow into it.
func TestServeStartsWithParkedReserve(t *testing.T) {
	s := newTestService(t, func(o *Options) {
		o.World.NumPEs = 4
		o.LivePEs = 2
	})
	fs := s.FleetStatus()
	if fs.Live != 2 || fs.Parked != 2 {
		t.Fatalf("initial membership %+v, want live=2 parked=2", fs)
	}
	want := GraphSpec{Depth: 3, Breadth: 2}.Tasks()
	if st := submitAndWait(t, s, graphSpec("a", 3, 2)); st.State != StateDone || st.TasksExecuted != want {
		t.Fatalf("job on reduced fleet: %+v", st)
	}
	if err := s.Resize(4); err != nil {
		t.Fatal(err)
	}
	if st := submitAndWait(t, s, graphSpec("a", 3, 2)); st.State != StateDone || st.TasksExecuted != want {
		t.Fatalf("job after growing into reserve: %+v", st)
	}
}

// Terminal job records are retained in constant number: a daemon that has
// run 3x retainTerminal jobs through the gateway holds at most
// retainTerminal of them (with their workloads released), still answers
// for the newest ids, and answers 404 for an evicted one exactly as for an
// id that never existed.
func TestServeTerminalRecordsBounded(t *testing.T) {
	s := newTestService(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	const jobs = 3 * retainTerminal
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		st, err := c.Submit(ctx, graphSpec("default", 1, 1))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err = c.Await(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %+v, %v", i, st, err)
		}
		ids = append(ids, st.ID)
	}

	s.mu.Lock()
	held := len(s.jobs)
	for id, js := range s.jobs {
		if js.work != nil {
			t.Errorf("terminal job %s still holds its workload", id)
		}
	}
	s.mu.Unlock()
	if held != retainTerminal {
		t.Errorf("service holds %d job records after %d jobs, want %d", held, jobs, retainTerminal)
	}
	for _, id := range ids[jobs-retainTerminal:] {
		if st, err := c.Status(ctx, id, 0); err != nil || st.State != StateDone {
			t.Fatalf("retained job %s: %+v, %v", id, st, err)
		}
	}
	var apiErr *APIError
	if _, err := c.Status(ctx, ids[jobs-retainTerminal-1], 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("evicted job %s: %v, want 404", ids[jobs-retainTerminal-1], err)
	}
}
