package cli

import (
	"flag"

	"sws/internal/pool"
)

// PoolFlags bundles the scheduler-shape flags every CLI that builds a
// pool.Config shares: executors per PE and the task queue's size and
// elasticity.
type PoolFlags struct {
	Workers  int
	Grow     bool
	QueueCap int
}

// RegisterPoolFlags installs the shared scheduler flags on fs
// (flag.CommandLine when nil).
func RegisterPoolFlags(fs *flag.FlagSet) *PoolFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	p := &PoolFlags{}
	fs.IntVar(&p.Workers, "workers", 1, "executor goroutines per PE (two-level scheduling when >1)")
	fs.BoolVar(&p.Grow, "grow", false, "elastic task queues: grow/spill instead of full-queue backpressure")
	fs.IntVar(&p.QueueCap, "qcap", 0, "task queue capacity in slots (0 = library default; the starting size with -grow)")
	return p
}

// Apply copies the flag values into cfg.
func (p *PoolFlags) Apply(cfg *pool.Config) {
	cfg.Workers = p.Workers
	cfg.Growable = p.Grow
	cfg.QueueCapacity = p.QueueCap
}
