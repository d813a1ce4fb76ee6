package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sws/internal/pool"
	"sws/internal/serve"
	"sws/internal/shmem"
)

const (
	servePEs     = 2
	serveClients = 2 // one connection each; no more load threads than cores
	serveTenants = 2
	graphDepth   = 6
	graphBreadth = 2
	graphTasks   = 1<<(graphDepth+1) - 1 // 127
	pacedRate    = 500                   // jobs/s, about 30% of closed-loop capacity
	submitTries  = 5                     // a job still refused after these is failed

	pacedInterval = time.Second / pacedRate
)

// serveEnv is a job service (2 PEs x 1 worker over shm) behind an HTTP
// listener, driven by serveClients clients of one connection each.
type serveEnv struct {
	wl      *workload
	seed    int64
	paced   bool
	svc     *serve.Service
	ts      *httptest.Server
	clients []*serve.Client
	guard   *hangGuard
}

func serveBuilder(paced bool) func(*workload, int64, string) (env, error) {
	return func(wl *workload, seed int64, flightDir string) (env, error) {
		svc, err := serve.New(serve.Options{
			World: shmem.Config{NumPEs: servePEs, HeapBytes: heapBytes, Transport: shmem.TransportShm, FlightDir: flightDir},
			Pool:  pool.Config{Seed: seed},
		})
		if err != nil {
			return nil, err
		}
		e := &serveEnv{wl: wl, seed: seed, paced: paced, svc: svc, ts: httptest.NewServer(svc.Handler())}
		e.guard = newHangGuard(wl, svc.Fleet().World())
		for i := 0; i < serveClients; i++ {
			e.clients = append(e.clients, &serve.Client{
				Base: e.ts.URL,
				HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			})
		}
		return e, nil
	}
}

func graphSpec(tenant string, depth, breadth int) serve.JobSpec {
	return serve.JobSpec{Tenant: tenant, Kind: serve.KindGraph, Graph: &serve.GraphSpec{Depth: depth, Breadth: breadth}}
}

// minimalJob runs the smallest graph job the gateway accepts (depth 0
// would be defaulted to 4): two tasks, over HTTP.
func (e *serveEnv) minimalJob() error {
	var s clientStats
	e.runJob(e.clients[0], graphSpec("setup", 1, 1), 2, time.Time{}, nil, &s)
	return s.err
}

func (e *serveEnv) close() error {
	for _, c := range e.clients {
		c.HTTP.CloseIdleConnections()
	}
	e.ts.Close()
	return e.svc.Close()
}

func (e *serveEnv) warm(n int) error {
	var s clientStats
	for i := 0; i < n && s.err == nil; i++ {
		e.runJob(e.clients[i%serveClients], graphSpec("tenant-0", graphDepth, graphBreadth), graphTasks, time.Time{}, nil, &s)
	}
	return s.err
}

// clientStats is what one client goroutine saw; the clients' stats are
// merged after the window, so the hot path takes no lock.
type clientStats struct {
	attempted, failed int
	latMS             []float64
	end               time.Time
	err               error
	jobSamples        // traced windows only, but for retried429
}

// runJob submits one job and awaits its terminal status, under the hang
// guard. Latency runs from due (the paced generator's schedule) or, when
// due is zero, from the submit. The span tree is job > {http_submit,
// queue, run, http_await}; queue and run are the server's own durations
// (JobStatus) placed on the client's clock so that the job ends no later
// than the await returns and starts no later than the submit returned.
func (e *serveEnv) runJob(c *serve.Client, spec serve.JobSpec, wantTasks uint64, due time.Time, rec *recorder, s *clientStats) {
	s.attempted++
	done := e.guard.watch()
	defer done()
	ctx := context.Background()
	submitStart := time.Now()
	var st serve.JobStatus
	var err error
	for try := 0; ; try++ {
		st, err = c.Submit(ctx, spec)
		var api *serve.APIError
		if err == nil || !errors.As(err, &api) || !api.Backpressure() || try == submitTries {
			break
		}
		s.retried429++
		time.Sleep(time.Millisecond)
	}
	submitEnd := time.Now()
	if err == nil {
		st, err = c.Await(ctx, st.ID)
	}
	end := time.Now()
	s.end = end
	if err == nil && (st.State != serve.StateDone || st.TasksExecuted != wantTasks) {
		err = fmt.Errorf("%s: job %s ended %q (%s) with %d tasks, want %d", e.wl.name, st.ID, st.State, st.Error, st.TasksExecuted, wantTasks)
	}
	if err != nil {
		s.failed++
		s.err = errors.Join(s.err, err)
		return
	}
	from := submitStart
	if !due.IsZero() {
		from = due
	}
	s.latMS = append(s.latMS, ms(end.Sub(from)))
	if rec == nil {
		return
	}
	total := time.Duration(st.TotalSeconds * float64(time.Second))
	queue := time.Duration(st.QueueSeconds * float64(time.Second))
	s.runMS = append(s.runMS, st.RunSeconds*1e3)
	s.queue += queue
	s.run += time.Duration(st.RunSeconds * float64(time.Second))
	s.client += end.Sub(submitStart)
	s.http += end.Sub(submitStart) - total
	accepted := submitEnd
	if t := end.Add(-total); t.Before(accepted) {
		accepted = t
	}
	if accepted.Before(submitStart) {
		accepted = submitStart
	}
	id := rec.newJob()
	root := rec.add(id, 0, "job", from, end)
	rec.add(id, root, "http_submit", submitStart, submitEnd)
	rec.add(id, root, "queue", accepted, accepted.Add(queue))
	rec.add(id, root, "run", accepted.Add(queue), accepted.Add(total))
	rec.add(id, root, "http_await", submitEnd, end)
}

// measure drives the service for d: closed loop (each client submits its
// next job when the previous one is terminal) or, paced, an open loop in
// which job k is due at start + k/pacedRate whatever the service does, is
// handed to client k mod serveClients, and is timed from its due time.
func (e *serveEnv) measure(d time.Duration, rec *recorder) window {
	var before fleetSnapshot
	if rec != nil {
		before = snapshotFleet(e.svc.Fleet(), servePEs)
	}
	per := make([]clientStats, serveClients)
	pacedJobs := int(pacedRate * d.Seconds())
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for ci := range per {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			s := &per[ci]
			rng := rand.New(rand.NewPCG(uint64(e.seed), uint64(ci)))
			next := func() serve.JobSpec {
				return graphSpec(fmt.Sprintf("tenant-%d", rng.IntN(serveTenants)), graphDepth, graphBreadth)
			}
			if !e.paced {
				for time.Since(start) < d && s.failed == 0 {
					e.runJob(e.clients[ci], next(), graphTasks, time.Time{}, rec, s)
				}
				return
			}
			for k := ci; k < pacedJobs && s.failed == 0; k += serveClients {
				due := start.Add(time.Duration(k) * pacedInterval)
				time.Sleep(time.Until(due))
				if rec != nil {
					s.lateMS = append(s.lateMS, ms(time.Since(due)))
				}
				e.runJob(e.clients[ci], next(), graphTasks, due, rec, s)
			}
		}(ci)
	}
	wg.Wait()
	win := window{cpu: cpuTime() - cpu0}
	if rec != nil {
		win.layers = &layerAcc{}
	}
	for i := range per {
		s := &per[i]
		win.attempted += s.attempted
		win.failed += s.failed
		win.latMS = append(win.latMS, s.latMS...)
		win.err = errors.Join(win.err, s.err)
		if w := s.end.Sub(start); w > win.wall {
			win.wall = w
		}
		if win.layers != nil {
			win.layers.add(s.jobSamples)
		}
	}
	win.tasks = uint64(len(win.latMS)) * graphTasks
	if a := win.layers; a != nil {
		// Every job is terminal, so the fleet is between epochs and its
		// pools' cumulative statistics are quiescent.
		var busy time.Duration
		for _, v := range a.runMS {
			busy += time.Duration(v * float64(time.Millisecond) * servePEs)
		}
		a.fold(before, snapshotFleet(e.svc.Fleet(), servePEs), busy)
	}
	return win
}
