// Command sws-serve runs the persistent work-stealing job service: one
// warm PE fleet (goroutine PEs, heaps, and victim sets attached once at
// startup) multiplexed across HTTP tenants. Jobs are submitted as JSON
// specs and run back-to-back as fleet epochs — no transport re-attach
// between them.
//
//	POST /v1/jobs        submit a spec, get 202 + job status (429 on
//	                     admission backpressure, Retry-After set)
//	GET  /v1/jobs/{id}   poll a job (?wait=ms long-polls)
//	GET  /healthz        liveness
//
// Example:
//
//	sws-serve -addr :8080 -pes 4 -metrics-addr :9090
//	curl -s localhost:8080/v1/jobs -d '{"kind":"uts","uts":{"tree":"tiny"}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sws/internal/cli"
	"sws/internal/obs"
	"sws/internal/pool"
	"sws/internal/serve"
	"sws/internal/shmem"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP API listen address")
		pes         = flag.Int("pes", 4, "PEs serving jobs at startup")
		minPEs      = flag.Int("min-pes", 1, "floor for POST /v1/fleet/resize")
		maxPEs      = flag.Int("max-pes", 0, "world size and resize ceiling; surplus over -pes starts parked (0 = -pes, fixed size)")
		transport   = flag.String("transport", "local", "fleet transport: local, tcp, or shm")
		protoName   = flag.String("protocol", "sws", "steal protocol: sws or sdc")
		heapMB      = flag.Int("heap-mb", 64, "symmetric heap per PE, MiB")
		seed        = flag.Int64("seed", 1, "victim-selection seed")
		maxInflight = flag.Int("max-inflight", 0, "max queued+running jobs before 429 (0 = default 64)")
		tenantQueue = flag.Int("tenant-queue", 0, "max queued jobs per tenant before 429 (0 = default 16)")
	)
	obsf := cli.RegisterObsFlags(nil)
	poolf := cli.RegisterPoolFlags(nil)
	flag.Parse()

	proto, err := pool.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	if *maxPEs == 0 {
		*maxPEs = *pes
	}
	if *maxPEs < *pes {
		fatal(fmt.Errorf("-max-pes %d below -pes %d", *maxPEs, *pes))
	}
	live := 0 // fixed membership unless the fleet is elastic
	if *maxPEs > *pes {
		live = *pes
	}
	world := shmem.Config{NumPEs: *maxPEs, HeapBytes: *heapMB << 20}
	switch *transport {
	case "local":
		world.Transport = shmem.TransportLocal
	case "tcp":
		world.Transport = shmem.TransportTCP
	case "shm":
		if !shmem.ShmSupported() {
			fatal(fmt.Errorf("shm transport is not supported on this platform; use -transport local"))
		}
		world.Transport = shmem.TransportShm
	default:
		fatal(fmt.Errorf("unknown transport %q (want local, tcp, or shm)", *transport))
	}

	if err := obsf.Start(); err != nil {
		if errors.Is(err, obs.ErrAddrInUse) {
			fatal(fmt.Errorf("%w\n(another sws-serve or benchmark is exporting metrics there; pick a different -metrics-addr or stop it)", err))
		}
		fatal(err)
	}

	pcfg := pool.Config{Protocol: proto, Seed: *seed}
	poolf.Apply(&pcfg)
	s, err := serve.New(serve.Options{
		World:       world,
		Pool:        pcfg,
		MaxInflight: *maxInflight,
		TenantQueue: *tenantQueue,
		LivePEs:     live,
		MinPEs:      *minPEs,
		Gatherer:    obsf.Gatherer(),
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(fmt.Errorf("api listen: %w", err))
	}
	srv := &http.Server{Handler: s.Handler()}
	if *maxPEs > *pes {
		fmt.Fprintf(os.Stderr, "sws-serve: fleet of %d PEs (%d parked, resize up to %d) (%s, %s) warm; API on http://%s/v1/jobs\n",
			*pes, *maxPEs-*pes, *maxPEs, *transport, proto, ln.Addr())
	} else {
		fmt.Fprintf(os.Stderr, "sws-serve: fleet of %d PEs (%s, %s) warm; API on http://%s/v1/jobs\n",
			*pes, *transport, proto, ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sws-serve: %v: draining queued jobs and shutting down\n", sig)
	case err := <-serveErr:
		fatal(fmt.Errorf("api server: %w", err))
	}

	// Stop taking new submissions, then drain: Close fails fast for new
	// Submits but lets every already-queued job run to completion.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sws-serve: api shutdown: %v\n", err)
	}
	if err := s.Close(); err != nil {
		fatal(fmt.Errorf("fleet teardown: %w", err))
	}
	if err := obsf.Finish(nil); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sws-serve: drained, fleet released")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-serve:", err)
	os.Exit(1)
}
