package pool

import "sync/atomic"

// TaskTally is a workload's pair of process-wide task counts (UTS nodes and
// leaves, BPC producers and consumers), bumped by every task. Each worker of
// the world keeps a cell of its own, worker × NumPEs + rank: two plain words
// on a 128-byte line pair (adjacent-line prefetch moves lines in pairs), so
// no locked instruction and no line moving between cores. Sum reads after
// the run, whose end orders every write before it. Cells come in chunks
// that never move, so the counts are exact at any worker count.
type TaskTally struct {
	head atomic.Pointer[tallyChunk]
}

const tallyChunkCells = 15

// A tallyChunk is 2 KiB, its own size class, so its cells start on pairs.
type tallyChunk struct {
	cells [tallyChunkCells]struct {
		n [2]uint64
		_ [112]byte
	}
	next atomic.Pointer[tallyChunk]
	_    [120]byte
}

// Add counts one task of kind k (0 or 1) for the worker running tc.
func (t *TaskTally) Add(tc *TaskCtx, k int) {
	w := tc.w
	if w.tally != t {
		w.tally, w.cell = t, t.cellOf(w.id*tc.NumPEs()+tc.Rank())
	}
	w.cell[k]++
}

// cellOf returns cell i, making the chunks up to its own.
func (t *TaskTally) cellOf(i int) *[2]uint64 {
	at := &t.head
	for ; ; i -= tallyChunkCells {
		if at.Load() == nil {
			at.CompareAndSwap(nil, new(tallyChunk))
		}
		c := at.Load()
		if i < tallyChunkCells {
			return &c.cells[i].n
		}
		at = &c.next
	}
}

// Sum returns the count of kind k over every worker, once the run is over.
func (t *TaskTally) Sum(k int) (n uint64) {
	for c := t.head.Load(); c != nil; c = c.next.Load() {
		for i := range c.cells {
			n += c.cells[i].n[k]
		}
	}
	return n
}
