package uts

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"sws/internal/pool"
	"sws/internal/task"
)

// Workload wires a UTS tree into a task pool. Each task is one tree node:
// executing it samples the child count from the node's digest and spawns
// one task per child — the recursive expression of parallelism from the
// paper's execution model (§2.1). Counters are process-local (every PE in
// a local-transport world shares the Workload; under a multi-process
// deployment each process reports its own share).
type Workload struct {
	Params Params
	tree   tree // Params with its per-depth constants, for runNode

	// NodeWork, if nonzero, adds simulated per-node search work
	// (TaskCtx.Compute, like BPC's task durations). The paper's
	// UTS nodes are nearly pure traversal (~0.1 µs); this knob makes the
	// workload latency-sensitive on hosts where real SHA-1 work would
	// saturate the cores and mask communication effects.
	NodeWork time.Duration

	// handle is set by Register; PEs in one process share the Workload
	// and register concurrently, so access is atomic. The value is
	// deterministic (same registry order on every PE).
	handle     atomic.Uint32
	registered atomic.Bool

	counts pool.TaskTally // of kind countNodes and countLeaves
}

// The kinds of Workload.counts.
const (
	countNodes = iota
	countLeaves
)

// NewWorkload validates the parameters and returns a workload.
func NewWorkload(p Params) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Workload{Params: p, tree: newTree(p)}, nil
}

// Register installs the node task on the registry. Must be called on
// every PE in the same order (SPMD).
func (w *Workload) Register(reg *pool.Registry) error {
	h, err := reg.Register("uts.node", w.runNode)
	if err != nil {
		return err
	}
	if w.registered.Load() && task.Handle(w.handle.Load()) != h {
		return errors.New("uts: inconsistent registration order across PEs")
	}
	w.handle.Store(uint32(h))
	w.registered.Store(true)
	return nil
}

// Seed enqueues the root on rank 0.
func (w *Workload) Seed(p *pool.Pool, rank int) error {
	if !w.registered.Load() {
		return errors.New("uts: workload not registered")
	}
	if rank != 0 {
		return nil
	}
	return p.Add(task.Handle(w.handle.Load()), Root(w.Params).Encode())
}

func (w *Workload) runNode(tc *pool.TaskCtx, payload []byte) error {
	rec, err := nodeRecord(payload)
	if err != nil {
		return err
	}
	w.counts.Add(tc, countNodes)
	if w.NodeWork > 0 {
		tc.Compute(w.NodeWork)
	}
	state := (*[NodeStateSize]byte)(rec[:NodeStateSize])
	depth := binary.LittleEndian.Uint32(rec[NodeStateSize:])
	kids := w.tree.numChildren(variate(state), depth)
	if kids == 0 {
		w.counts.Add(tc, countLeaves)
		return nil
	}
	h := task.Handle(w.handle.Load())
	// The payload is this task's to overwrite (pool.Func), so it holds the
	// children one at a time, in place: the parent's state is copied out
	// once, the depth is written once, and each child's digest goes
	// straight into the state for Spawn to copy into its queue slot. A
	// local array would cost no allocation (a spawned payload never
	// escapes), only a copy of the record the payload already holds.
	parent := *state
	binary.LittleEndian.PutUint32(rec[NodeStateSize:], depth+1)
	for i := range kids {
		childDigest(state, &parent, uint32(i))
		if err := tc.Spawn(h, payload); err != nil {
			return err
		}
	}
	return nil
}

// Bind installs an externally registered handle, for runtimes that
// register one delegating task function at fleet warmup and retarget it
// at a fresh per-job Workload: the job's Workload never registers itself
// but must know the fleet's handle to spawn children and seed roots.
func (w *Workload) Bind(h task.Handle) {
	w.handle.Store(uint32(h))
	w.registered.Store(true)
}

// RunNode executes one tree-node task against this workload. It is the
// same body Register installs; exported so a delegating dispatcher (the
// job service) can route a fleet-registered handle to the current job's
// workload.
func (w *Workload) RunNode(tc *pool.TaskCtx, payload []byte) error {
	return w.runNode(tc, payload)
}

// Nodes returns the number of nodes this process has executed.
func (w *Workload) Nodes() uint64 { return w.counts.Sum(countNodes) }

// Leaves returns the number of leaves this process has executed.
func (w *Workload) Leaves() uint64 { return w.counts.Sum(countLeaves) }
