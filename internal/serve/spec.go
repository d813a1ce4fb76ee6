// Package serve turns the warm PE fleet (pool.Fleet) into a long-lived
// multi-tenant job service: an HTTP gateway accepts workload specs,
// admission control bounds the number of in-flight jobs (typed 429
// backpressure), per-tenant FIFO queues are drained round-robin so one
// chatty tenant cannot starve the others, and every job runs as one
// fleet epoch with its own stats delta and latency accounting.
//
// The layering mirrors the fleet/job split: the service owns exactly one
// world + fleet for its whole lifetime (transports attach once,
// shmem.World.Attaches stays at NumPEs), while each accepted job is a
// root-task injection plus a job-scoped termination wave. Task functions
// are registered once at fleet warmup as thin delegates that route to
// the *current* job's workload — jobs execute one at a time (epochs are
// exclusive by construction), so a single current-work pointer suffices.
package serve

import (
	"fmt"
	"time"

	"sws/internal/bpc"
	"sws/internal/uts"
)

// Job kinds accepted by the gateway.
const (
	KindUTS   = "uts"
	KindBPC   = "bpc"
	KindGraph = "graph"
)

// JobSpec is the wire-format job description POSTed to /v1/jobs.
// Exactly the section matching Kind may be set; absent sections use the
// kind's defaults.
type JobSpec struct {
	// Tenant attributes the job for fair queuing and quotas. Empty maps
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// Kind selects the workload: "uts", "bpc", or "graph".
	Kind string `json:"kind"`
	// DeadlineMS, when positive, bounds how long the job may wait in the
	// queue: if the deadline lapses before dispatch, the job is rejected
	// with a typed deadline AdmissionError and finishes in the "expired"
	// state instead of running stale. It does not cancel a job that is
	// already running (cooperative in-flight cancellation is a ROADMAP
	// follow-on).
	DeadlineMS int `json:"deadline_ms,omitempty"`

	UTS   *UTSSpec   `json:"uts,omitempty"`
	BPC   *BPCSpec   `json:"bpc,omitempty"`
	Graph *GraphSpec `json:"graph,omitempty"`
}

// UTSSpec runs an Unbalanced Tree Search traversal (paper §5.2.2).
type UTSSpec struct {
	// Tree is a preset name: tiny, small, t1, tinybin, tinylinear.
	// Default "tiny" (service jobs favor latency over tree size).
	Tree string `json:"tree,omitempty"`
	// NodeWorkUS adds simulated per-node work, in microseconds.
	NodeWorkUS int `json:"node_work_us,omitempty"`
}

// BPCSpec runs a Bouncing Producer-Consumer chain (paper §5.2.1).
type BPCSpec struct {
	Depth      int `json:"depth,omitempty"`       // producer chain length (default 8)
	NConsumers int `json:"n_consumers,omitempty"` // consumers per producer (default 64)
	// Task durations in microseconds (defaults 50/10, preserving the
	// paper's 5:1 consumer:producer ratio at service-friendly scale).
	ConsumerWorkUS int `json:"consumer_work_us,omitempty"`
	ProducerWorkUS int `json:"producer_work_us,omitempty"`
}

// GraphSpec runs an arbitrary uniform task graph: a Breadth-ary tree of
// Depth levels below the root, each task optionally spinning SpinUS
// microseconds. Total tasks = sum_{d=0..Depth} Breadth^d.
type GraphSpec struct {
	Depth   int `json:"depth,omitempty"`   // levels below the root (default 4)
	Breadth int `json:"breadth,omitempty"` // children per node (default 2)
	SpinUS  int `json:"spin_us,omitempty"` // per-task simulated work, microseconds
}

// specLimits bound per-job work so one request cannot wedge the fleet
// for minutes; they are validation errors, not admission control.
const (
	maxGraphDepth   = 24
	maxGraphBreadth = 64
	maxGraphTasks   = 1 << 22
	maxSpin         = 100 * time.Millisecond
	maxBPCDepth     = 4096
	maxBPCConsumers = 1 << 16
)

// Tasks returns the exact task count of a graph spec.
func (g GraphSpec) Tasks() uint64 {
	var total, level uint64 = 0, 1
	for d := 0; d <= g.Depth; d++ {
		total += level
		level *= uint64(g.Breadth)
	}
	return total
}

// withDefaults returns the spec with tenant and per-kind defaults filled
// in.
func (s JobSpec) withDefaults() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	switch s.Kind {
	case KindUTS:
		u := UTSSpec{Tree: "tiny"}
		if s.UTS != nil {
			u = *s.UTS
			if u.Tree == "" {
				u.Tree = "tiny"
			}
		}
		s.UTS = &u
	case KindBPC:
		b := BPCSpec{}
		if s.BPC != nil {
			b = *s.BPC
		}
		if b.Depth == 0 {
			b.Depth = 8
		}
		if b.NConsumers == 0 {
			b.NConsumers = 64
		}
		if b.ConsumerWorkUS == 0 {
			b.ConsumerWorkUS = 50
		}
		if b.ProducerWorkUS == 0 {
			b.ProducerWorkUS = 10
		}
		s.BPC = &b
	case KindGraph:
		g := GraphSpec{}
		if s.Graph != nil {
			g = *s.Graph
		}
		if g.Depth == 0 {
			g.Depth = 4
		}
		if g.Breadth == 0 {
			g.Breadth = 2
		}
		s.Graph = &g
	}
	return s
}

// Validate checks a spec (after defaulting) without building workloads.
// Jobs are validated at admission: Job.Seed must not fail on a warm
// fleet, so everything that can be rejected is rejected here.
func (s JobSpec) Validate() error {
	if s.DeadlineMS < 0 {
		return fmt.Errorf("serve: negative deadline %d ms", s.DeadlineMS)
	}
	switch s.Kind {
	case KindUTS:
		if _, err := uts.Preset(s.UTS.Tree); err != nil {
			return err
		}
		if s.UTS.NodeWorkUS < 0 {
			return fmt.Errorf("serve: negative uts node work")
		}
		if d := time.Duration(s.UTS.NodeWorkUS) * time.Microsecond; d > maxSpin {
			return fmt.Errorf("serve: uts node work %v exceeds limit %v", d, maxSpin)
		}
	case KindBPC:
		b := *s.BPC
		if b.Depth < 1 || b.Depth > maxBPCDepth {
			return fmt.Errorf("serve: bpc depth %d outside [1, %d]", b.Depth, maxBPCDepth)
		}
		if b.NConsumers < 0 || b.NConsumers > maxBPCConsumers {
			return fmt.Errorf("serve: bpc consumers %d outside [0, %d]", b.NConsumers, maxBPCConsumers)
		}
		if b.ConsumerWorkUS < 0 || b.ProducerWorkUS < 0 {
			return fmt.Errorf("serve: negative bpc task duration")
		}
		if d := time.Duration(b.ConsumerWorkUS) * time.Microsecond; d > maxSpin {
			return fmt.Errorf("serve: bpc consumer work %v exceeds limit %v", d, maxSpin)
		}
		if d := time.Duration(b.ProducerWorkUS) * time.Microsecond; d > maxSpin {
			return fmt.Errorf("serve: bpc producer work %v exceeds limit %v", d, maxSpin)
		}
	case KindGraph:
		g := *s.Graph
		if g.Depth < 0 || g.Depth > maxGraphDepth {
			return fmt.Errorf("serve: graph depth %d outside [0, %d]", g.Depth, maxGraphDepth)
		}
		if g.Breadth < 1 || g.Breadth > maxGraphBreadth {
			return fmt.Errorf("serve: graph breadth %d outside [1, %d]", g.Breadth, maxGraphBreadth)
		}
		if g.SpinUS < 0 {
			return fmt.Errorf("serve: negative graph spin")
		}
		if d := time.Duration(g.SpinUS) * time.Microsecond; d > maxSpin {
			return fmt.Errorf("serve: graph spin %v exceeds limit %v", d, maxSpin)
		}
		if n := g.Tasks(); n > maxGraphTasks {
			return fmt.Errorf("serve: graph spans %d tasks, limit %d", n, maxGraphTasks)
		}
	case "":
		return fmt.Errorf("serve: job spec missing kind")
	default:
		return fmt.Errorf("serve: unknown job kind %q (uts|bpc|graph)", s.Kind)
	}
	return nil
}

// buildWork materializes the per-job workload instances for a validated
// spec. The returned activeWork is what the fleet's delegating task
// functions route to while the job's epoch runs.
func (s JobSpec) buildWork() (*activeWork, error) {
	switch s.Kind {
	case KindUTS:
		params, err := uts.Preset(s.UTS.Tree)
		if err != nil {
			return nil, err
		}
		wl, err := uts.NewWorkload(params)
		if err != nil {
			return nil, err
		}
		wl.NodeWork = time.Duration(s.UTS.NodeWorkUS) * time.Microsecond
		return &activeWork{uts: wl}, nil
	case KindBPC:
		wl, err := bpc.NewWorkload(bpc.Params{
			Depth:        s.BPC.Depth,
			NConsumers:   s.BPC.NConsumers,
			ConsumerWork: time.Duration(s.BPC.ConsumerWorkUS) * time.Microsecond,
			ProducerWork: time.Duration(s.BPC.ProducerWorkUS) * time.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		return &activeWork{bpc: wl}, nil
	case KindGraph:
		return &activeWork{graph: &graphWork{
			breadth: s.Graph.Breadth,
			spin:    time.Duration(s.Graph.SpinUS) * time.Microsecond,
			depth:   s.Graph.Depth,
		}}, nil
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", s.Kind)
}
