package pool

import "sync/atomic"

// TaskTally is a workload's pair of process-wide task counts — UTS nodes and
// leaves, BPC producers and consumers — striped by worker: every task bumps
// one, and a single pair shared by every worker of every PE in the process
// would bounce its cache line between the cores at the task rate. The
// leading pad keeps the stripes off the line of whatever fields precede the
// tally in the struct that embeds it.
type TaskTally struct {
	_       [64]byte
	stripes [tallyStripes]tallyStripe
}

const tallyStripes = 16

// tallyStripe is one worker's pair, alone on a cache line.
type tallyStripe struct {
	n [2]atomic.Uint64
	_ [48]byte
}

// Add counts one task of kind k (0 or 1) for the worker running tc.
func (t *TaskTally) Add(tc *TaskCtx, k int) {
	t.stripes[(tc.Worker()*tc.NumPEs()+tc.Rank())%tallyStripes].n[k].Add(1)
}

// Sum returns the count of kind k over every worker.
func (t *TaskTally) Sum(k int) (n uint64) {
	for i := range t.stripes {
		n += t.stripes[i].n[k].Load()
	}
	return n
}
