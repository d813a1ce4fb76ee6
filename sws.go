// Package sws is a Go reproduction of "Optimizing Work Stealing
// Communication with Structured Atomic Operations" (Cartier, Dinan,
// Larkins — ICPP 2021): a PGAS task-pool runtime whose steal protocol
// discovers and claims work with a single remote atomic fetch-add on a
// packed 64-bit queue descriptor (the "stealval"), halving the
// communication of the conventional Scioto SDC protocol.
//
// The package is the public facade over the implementation packages:
//
//   - internal/shmem — an OpenSHMEM-like symmetric-heap emulation
//     (goroutine PEs with an injected latency model, or real TCP);
//   - internal/core — the SWS queue (the paper's contribution);
//   - internal/sdc — the baseline six-communication steal protocol;
//   - internal/pool — the Scioto-style task-pool runtime;
//   - internal/bpc, internal/uts — the paper's benchmark workloads;
//   - internal/bench — the harness that regenerates every table and
//     figure of the paper's evaluation.
//
// A minimal program:
//
//	cfg := sws.Config{PEs: 4}
//	var hits atomic.Int64
//	res, err := sws.Run(cfg, sws.Job{
//		Register: func(reg *sws.Registry) (sws.Handle, error) {
//			return reg.Register("hello", func(tc *sws.TaskCtx, payload []byte) error {
//				hits.Add(1)
//				return nil
//			})
//		},
//		Seed: func(p *sws.Pool, h sws.Handle, rank int) error {
//			if rank != 0 {
//				return nil
//			}
//			return p.Add(h, nil)
//		},
//	})
//
// See examples/ for complete programs and DESIGN.md for the system map.
package sws

import (
	"errors"
	"fmt"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
)

// Re-exported building blocks. The aliases keep user code to a single
// import while the implementation stays in internal packages.
type (
	// Registry maps task names to portable handles (SPMD registration).
	Registry = pool.Registry
	// Pool is one PE's participation in the global task pool.
	Pool = pool.Pool
	// TaskCtx is passed to every task function.
	TaskCtx = pool.TaskCtx
	// TaskFunc is a task body.
	TaskFunc = pool.Func
	// Handle is a portable task-function identifier.
	Handle = task.Handle
	// Protocol selects the steal protocol (SWS or SDC).
	Protocol = pool.Protocol
	// LatencyModel is the injected communication cost model.
	LatencyModel = shmem.LatencyModel
	// Transport selects the PGAS substrate.
	Transport = shmem.TransportKind
	// PEStats are per-PE runtime counters.
	PEStats = stats.PE
	// Trace records per-PE scheduling events (see NewTrace).
	Trace = trace.Set
	// TraceEvent is one recorded scheduling event.
	TraceEvent = trace.Event
)

// Protocol and transport constants.
const (
	SWS = pool.SWS
	SDC = pool.SDC
	// SWSFused is SWS with single-round-trip steals (programmable-NIC
	// emulation; the Portals-offload ablation beyond the paper).
	SWSFused = pool.SWSFused

	TransportLocal = shmem.TransportLocal
	TransportTCP   = shmem.TransportTCP
)

// Args packs small integer arguments into a task payload.
func Args(vals ...uint64) []byte { return task.Args(vals...) }

// ParseArgs unpacks a payload written by Args.
func ParseArgs(payload []byte, n int) ([]uint64, error) { return task.ParseArgs(payload, n) }

// NewRegistry returns an empty task registry.
func NewRegistry() *Registry { return pool.NewRegistry() }

// NewTrace builds per-PE event rings to attach to Config.Trace: they take
// the place of the world's flight rings for the run and also record every
// task execution and scheduling step. After Run, read it with Merged or
// CountByKind, or render it like a flight journal: Dumps feeds
// internal/inspect's text report and Perfetto export.
func NewTrace(pes, capacity int) (*Trace, error) { return trace.NewSet(pes, capacity) }

// Config describes a run of the task pool.
type Config struct {
	// PEs is the number of processing elements (default 4).
	PEs int
	// Protocol selects SWS (default) or the SDC baseline.
	Protocol Protocol
	// Transport selects the substrate (default: in-process shared memory
	// with the latency model; TransportTCP uses real sockets).
	Transport Transport
	// Latency injects communication costs (zero by default; see
	// bench.DefaultLatency for the benchmark model).
	Latency LatencyModel
	// HeapBytes is the symmetric heap per PE (default 16 MiB). On linux it
	// is address space reserved, each page committed at its first touch.
	HeapBytes int
	// QueueCapacity is the split queue size in slots (default 8192). A
	// spawn that finds the queue full goes to the owner's private deque
	// and is shared once the queue has room again.
	QueueCapacity int
	// PayloadCap is the per-task payload capacity in bytes (default 24).
	PayloadCap int
	// Workers is the number of worker goroutines per PE (default 1: the
	// PE's owner alone, the paper's single-threaded PE). Each worker
	// beyond the first is an executor sharing tasks with the owner over
	// an intra-PE ring, while the owner alone drives the inter-PE steal
	// protocol; executors require the local, tcp or shm transport.
	Workers int
	// Seed makes victim selection reproducible.
	Seed int64
	// Trace, if non-nil, records per-PE scheduling events.
	Trace *Trace
}

// Job is the SPMD body of a run: Register installs task functions
// (identically on every PE) and returns the handle Seed uses to enqueue
// the initial work. Seed runs on every PE; guard on rank to seed
// specific queues.
type Job struct {
	Register func(reg *Registry) (Handle, error)
	Seed     func(p *Pool, h Handle, rank int) error
	// Finish, if non-nil, runs on every PE after global termination —
	// typically to read results out of the global address space. A
	// barrier separates Run from Finish, so all one-sided accumulations
	// performed by tasks are visible.
	Finish func(p *Pool, rank int) error
}

// Result aggregates a completed run.
type Result struct {
	// Elapsed is the slowest PE's time on Ctx.Now between the start and
	// termination barriers (the paper's whole-program timing).
	Elapsed time.Duration
	// PEs holds per-PE counters, indexed by rank.
	PEs []PEStats
	// Total is the element-wise sum over PEs.
	Total PEStats
	// Throughput is executed tasks per second.
	Throughput float64
}

// Run executes the job on a fresh world and gathers statistics.
func Run(cfg Config, job Job) (*Result, error) {
	if job.Register == nil {
		return nil, errors.New("sws: Job.Register is nil")
	}
	if cfg.PEs == 0 {
		cfg.PEs = 4
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 16 << 20
	}
	world, err := shmem.NewWorld(shmem.Config{
		NumPEs:    cfg.PEs,
		HeapBytes: cfg.HeapBytes,
		Latency:   cfg.Latency,
		Transport: cfg.Transport,
	})
	if err != nil {
		return nil, err
	}
	handles := make([]Handle, cfg.PEs)
	run, err := pool.RunOnce(world, pool.Config{
		Protocol:      cfg.Protocol,
		QueueCapacity: cfg.QueueCapacity,
		PayloadCap:    cfg.PayloadCap,
		Workers:       cfg.Workers,
		Seed:          cfg.Seed,
		Trace:         cfg.Trace,
	}, func(rank int, reg *Registry) (err error) {
		handles[rank], err = job.Register(reg)
		return peErr("register", rank, err)
	}, func(p *Pool, rank int) error {
		if job.Seed == nil {
			return nil
		}
		return peErr("seed", rank, job.Seed(p, handles[rank], rank))
	}, func(p *Pool, rank int) error {
		if job.Finish == nil {
			return nil
		}
		return peErr("finish", rank, job.Finish(p, rank))
	})
	if err != nil {
		return nil, err
	}
	return &Result{Elapsed: run.Elapsed, PEs: run.PEs, Total: run.Total(), Throughput: run.Throughput()}, nil
}

// peErr names the job step and the PE an error came from.
func peErr(step string, rank int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("sws: %s on PE %d: %w", step, rank, err)
}
