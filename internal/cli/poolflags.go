package cli

import (
	"flag"

	"sws/internal/pool"
)

// PoolFlags bundles the scheduler-shape flags every CLI that builds a
// pool.Config shares: executors per PE and the split queue's size.
type PoolFlags struct {
	Workers  int
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
	fs.IntVar(&p.QueueCap, "qcap", 0, "split queue capacity in slots, what one PE can share (0 = library default 8192; spawns past it wait in the owner's private deque)")
	return p
}

// Apply copies the flag values into cfg.
func (p *PoolFlags) Apply(cfg *pool.Config) {
	cfg.Workers = p.Workers
	cfg.QueueCapacity = p.QueueCap
}
