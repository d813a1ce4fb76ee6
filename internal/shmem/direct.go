package shmem

import (
	"sync"
	"time"
)

// directTransport executes one-sided operations against the target heap
// from the initiating goroutine — the software analogue of NIC-side
// RDMA/atomic offload: the target PE's worker code (and, across
// processes, its CPU) is never involved. It serves every heap whose bytes
// the initiator can address, and behaves one way on all of them: where the
// bytes live — a private mapping (TransportLocal) or one MAP_SHARED segment
// (TransportShm, in-process or joined; see shm.go) — is decided when the
// world is built and matters again only when the memory is released.
//
// Every operation runs the same sequence exactly once: resolve the target,
// fault verdict, latency charge, World.land. Blocking operations charge
// LatencyModel.BlockingRTT (+ bandwidth) before they land, emulating the
// initiator waiting on a network round trip; injections charge only the
// injection overhead. On memory the initiator can address an injection IS
// its completion, so it lands inline and Quiet has nothing to wait for.
// The weak ordering the protocols must tolerate — a steal-completion store
// landing long after the thief has moved on — is exercised where it is
// reproducible: the sim's delivery events, DelayFaults (which stalls the
// landing), and the conformance suite's scripted thieves, which withhold
// the store themselves.
type directTransport struct {
	hostWaits
	seg *shmSegment // the mapping to release on close; nil for private heaps

	closeOnce sync.Once
	closeErr  error
}

func (t *directTransport) blocking(r opReq) (uint64, []byte, error) {
	pe, err := t.w.target(r.to)
	if err != nil {
		return 0, nil, err
	}
	v := t.w.verdict(&r)
	lat := t.w.cfg.Latency
	at := lat.charge(lat.blockingCost(len(r.buf)) + v.Delay)
	if err := v.failure(); err != nil {
		return 0, nil, opError(r.op, r.from, r.to, err)
	}
	val, data, err := t.w.land(pe, &r, v.Duplicate, at, nil)
	if r.op == OpFetchAddGet {
		// One round trip covers the claim and the dependent payload, whose
		// size is only known now.
		lat.charge(lat.bandwidth(len(data)))
	}
	return val, data, err
}

// nbi injects r. Fault verdicts apply to injections too: a drop silently
// loses the op (exactly the lost-notification failure mode), a delay
// stalls its landing, and a duplicate redelivers it.
func (t *directTransport) nbi(r opReq) error {
	pe, err := t.w.target(r.to)
	if err != nil {
		return err
	}
	v := t.w.verdict(&r)
	if v.dropped() {
		return nil
	}
	lat := t.w.cfg.Latency
	lat.charge(lat.InjectOverhead + v.Delay)
	_, _, err = t.w.land(pe, &r, v.Duplicate, time.Time{}, nil)
	return err
}

// quiet is a no-op fence: nothing is ever deferred.
func (t *directTransport) quiet(int) error { return nil }

func (t *directTransport) close() error {
	t.closeOnce.Do(func() {
		if t.seg != nil {
			if r := t.w.localRank; r >= 0 {
				t.seg.detachRank(r)
			}
			t.closeErr = t.seg.close()
		}
	})
	return t.closeErr
}
