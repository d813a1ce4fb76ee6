// Package bpc implements the Bouncing Producer-Consumer benchmark
// (Dinan et al. 2009, the paper's [11]) used as the first evaluation
// workload (§5.2.1).
//
// BPC stresses a load balancer's ability to *locate and disperse* work: a
// producer task spawns NConsumers consumer tasks plus, while depth
// remains, one successor producer. The producer is deliberately spawned
// FIRST, which places it at the tail end of the split queue — the first
// position thieves claim — so the producer "bounces" between processes,
// dragging the work source around the machine. Consumers simulate fixed
// task durations with TaskCtx.Compute.
//
// The paper's configuration (8,192 consumers per producer, depth 500,
// 5 ms consumer / 1 ms producer tasks) runs on 2,112 cores; the defaults
// here scale the counts and durations to laptop budgets while preserving
// the producer:consumer structure and task-time ratio (DESIGN.md §2).
package bpc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/pool"
	"sws/internal/task"
)

// Params configures a BPC run.
type Params struct {
	// Depth is the length of the producer chain.
	Depth int
	// NConsumers is the number of consumer tasks per producer.
	NConsumers int
	// ConsumerWork is the simulated duration of one consumer task
	// (paper: 5 ms).
	ConsumerWork time.Duration
	// ProducerWork is the simulated duration of one producer task
	// (paper: 1 ms).
	ProducerWork time.Duration
}

// Default returns a laptop-scale configuration preserving the paper's
// 5:1 consumer:producer task-time ratio.
func Default() Params {
	return Params{Depth: 64, NConsumers: 512, ConsumerWork: 200 * time.Microsecond, ProducerWork: 40 * time.Microsecond}
}

// Paper returns the paper's §5.2.1 configuration (minutes of CPU time;
// intended for large runs only).
func Paper() Params {
	return Params{Depth: 500, NConsumers: 8192, ConsumerWork: 5 * time.Millisecond, ProducerWork: time.Millisecond}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Depth < 1 {
		return fmt.Errorf("bpc: depth %d < 1", p.Depth)
	}
	if p.NConsumers < 0 {
		return fmt.Errorf("bpc: negative consumer count %d", p.NConsumers)
	}
	if p.ConsumerWork < 0 || p.ProducerWork < 0 {
		return fmt.Errorf("bpc: negative task duration")
	}
	return nil
}

// TotalTasks returns the number of tasks a run executes: Depth producers
// and Depth*NConsumers consumers.
func (p Params) TotalTasks() uint64 {
	return uint64(p.Depth) * uint64(p.NConsumers+1)
}

func (p Params) String() string {
	return fmt.Sprintf("bpc(depth=%d n=%d tc=%v tp=%v)", p.Depth, p.NConsumers, p.ConsumerWork, p.ProducerWork)
}

// Workload wires BPC into a task pool.
type Workload struct {
	Params Params

	// Handles are set by Register; PEs in one process share the Workload
	// and register concurrently, so access is atomic. Values are
	// deterministic (same registry order on every PE).
	producerH  atomic.Uint32
	consumerH  atomic.Uint32
	registered atomic.Bool

	counts pool.TaskTally // of kind countProducers and countConsumers
}

// The kinds of Workload.counts.
const (
	countProducers = iota
	countConsumers
)

// NewWorkload validates the parameters and returns a workload.
func NewWorkload(p Params) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Workload{Params: p}, nil
}

// Register installs the producer and consumer tasks (SPMD: same order on
// every PE).
func (w *Workload) Register(reg *pool.Registry) error {
	ph, err := reg.Register("bpc.producer", w.runProducer)
	if err != nil {
		return err
	}
	ch, err := reg.Register("bpc.consumer", w.runConsumer)
	if err != nil {
		return err
	}
	if w.registered.Load() &&
		(task.Handle(w.producerH.Load()) != ph || task.Handle(w.consumerH.Load()) != ch) {
		return errors.New("bpc: inconsistent registration order across PEs")
	}
	w.producerH.Store(uint32(ph))
	w.consumerH.Store(uint32(ch))
	w.registered.Store(true)
	return nil
}

// Seed enqueues the first producer on rank 0.
func (w *Workload) Seed(p *pool.Pool, rank int) error {
	if !w.registered.Load() {
		return errors.New("bpc: workload not registered")
	}
	if rank != 0 {
		return nil
	}
	return p.Add(task.Handle(w.producerH.Load()), task.Args(uint64(w.Params.Depth)))
}

func (w *Workload) runProducer(tc *pool.TaskCtx, payload []byte) error {
	args, err := task.ParseArgs(payload, 1)
	if err != nil {
		return err
	}
	depth := args[0]
	if depth == 0 {
		return errors.New("bpc: producer with zero depth")
	}
	// Spawn the successor producer FIRST so it sits closest to the tail
	// of the shared portion: thieves claim it before the consumers, which
	// is what makes the producer bounce (§5.2.1).
	if depth > 1 {
		if err := tc.Spawn(task.Handle(w.producerH.Load()), task.Args(depth-1)); err != nil {
			return err
		}
	}
	ch := task.Handle(w.consumerH.Load())
	for i := 0; i < w.Params.NConsumers; i++ {
		if err := tc.Spawn(ch, nil); err != nil {
			return err
		}
	}
	tc.Compute(w.Params.ProducerWork)
	w.counts.Add(tc, countProducers)
	return nil
}

func (w *Workload) runConsumer(tc *pool.TaskCtx, payload []byte) error {
	tc.Compute(w.Params.ConsumerWork)
	w.counts.Add(tc, countConsumers)
	return nil
}

// Bind installs externally registered producer/consumer handles, for
// runtimes that register delegating task functions once at fleet warmup
// and retarget them at a fresh per-job Workload.
func (w *Workload) Bind(producer, consumer task.Handle) {
	w.producerH.Store(uint32(producer))
	w.consumerH.Store(uint32(consumer))
	w.registered.Store(true)
}

// RunProducer executes one producer task against this workload — the
// body Register installs, exported for delegating dispatchers.
func (w *Workload) RunProducer(tc *pool.TaskCtx, payload []byte) error {
	return w.runProducer(tc, payload)
}

// RunConsumer executes one consumer task against this workload — the
// body Register installs, exported for delegating dispatchers.
func (w *Workload) RunConsumer(tc *pool.TaskCtx, payload []byte) error {
	return w.runConsumer(tc, payload)
}

// Producers returns the number of producer tasks executed in-process.
func (w *Workload) Producers() uint64 { return w.counts.Sum(countProducers) }

// Consumers returns the number of consumer tasks executed in-process.
func (w *Workload) Consumers() uint64 { return w.counts.Sum(countConsumers) }
