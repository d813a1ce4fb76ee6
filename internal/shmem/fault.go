package shmem

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDropped marks an operation discarded by fault injection. Blocking
// operations surface it to the initiator (the fabric's timeout would);
// non-blocking injections are silently lost — Quiet still completes,
// exactly the failure mode that loses a steal-completion notification.
var ErrDropped = errors.New("shmem: operation dropped by fault injection")

// ErrPartitioned marks an operation whose initiator and target are on
// opposite sides of an injected network partition.
var ErrPartitioned = errors.New("shmem: target unreachable (partitioned)")

// Verdict is a fault injector's decision about one operation.
type Verdict struct {
	// Delay is charged (on top of the latency model) before the operation
	// applies. Under the simulation transport the delay is virtual time.
	Delay time.Duration
	// Duplicate applies the operation twice, emulating fabric-level
	// retransmission of a completed-but-unacknowledged store. Only
	// idempotent deliveries honor it (stores and puts; atomics on a
	// reliable fabric are never blindly retransmitted).
	Duplicate bool
	// Drop discards the operation: a blocking op fails with ErrDropped, a
	// non-blocking injection is silently lost (Quiet still completes).
	Drop bool
	// Err, if non-nil, overrides ErrDropped as the failure a dropped
	// blocking operation reports (e.g. ErrPartitioned).
	Err error
}

// failure returns the error a blocking operation should fail with, or nil
// if the operation should proceed.
func (v Verdict) failure() error {
	if v.Err != nil {
		return v.Err
	}
	if v.Drop {
		return ErrDropped
	}
	return nil
}

// dropped reports whether the operation must not be applied.
func (v Verdict) dropped() bool { return v.Drop || v.Err != nil }

// FaultInjector intercepts one-sided operations before they are applied,
// for testing protocol robustness. Implementations must be safe for
// concurrent use by every PE.
type FaultInjector interface {
	// Before is called once per operation and returns the fault verdict:
	// extra delay, duplication, and/or dropping. The zero Verdict lets the
	// operation through untouched.
	Before(op Op, from, to int, addr Addr) Verdict
}

// DelayFaults injects a random delay into a fraction of non-blocking
// operations. It stresses exactly the window the paper's completion epochs
// exist for: steal-completion notifications that arrive long after the
// claim, possibly after the owner has started an acquire.
type DelayFaults struct {
	// Fraction of matching operations to delay, in [0, 1].
	Fraction float64
	// MaxDelay is the upper bound of the uniformly random delay.
	MaxDelay time.Duration
	// Ops restricts injection to these operation kinds; empty means all
	// non-blocking kinds.
	Ops []Op
	// Seed makes the injection reproducible. Seed 0 is a fixed seed like
	// any other — it is never replaced by a time-derived value — so two
	// runs with the zero value inject identical faults.
	Seed int64

	dice dice
}

// Before implements FaultInjector.
func (d *DelayFaults) Before(op Op, from, to int, addr Addr) Verdict {
	if !matchOps(d.Ops, op) {
		return Verdict{}
	}
	_, delay := d.dice.roll(d.Seed, d.Fraction, d.MaxDelay)
	return Verdict{Delay: delay}
}

// dice is the seeded PRNG behind each fraction-based injector: built from
// the injector's Seed on first use, and locked because every PE rolls it.
type dice struct {
	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// roll reports whether this operation is hit (with probability fraction)
// and, for a hit with max > 0, a uniformly random delay below max.
func (d *dice) roll(seed int64, fraction float64, max time.Duration) (hit bool, delay time.Duration) {
	d.once.Do(func() { d.rng = rand.New(rand.NewSource(seed)) })
	d.mu.Lock()
	defer d.mu.Unlock()
	hit = d.rng.Float64() < fraction
	if hit && max > 0 {
		delay = time.Duration(d.rng.Int63n(int64(max)))
	}
	return hit, delay
}

// matchOps reports whether an injector restricted to ops acts on op; an
// empty restriction means every non-blocking kind.
func matchOps(ops []Op, op Op) bool {
	if len(ops) == 0 {
		return !op.Blocking()
	}
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// DuplicateFaults re-delivers a fraction of idempotent stores, emulating a
// fabric retransmitting an operation whose ack was lost. Only OpStoreNBI
// and OpStore are duplicated: a duplicated store of the same value is the
// only duplication a reliable-delivery fabric can surface to these
// protocols (fetch-adds are acknowledged with their fetch and never
// retried blindly). Seed 0 is a fixed seed, as in DelayFaults.
type DuplicateFaults struct {
	Fraction float64
	Seed     int64

	dice dice
}

// Before implements FaultInjector.
func (d *DuplicateFaults) Before(op Op, from, to int, addr Addr) Verdict {
	if op != OpStoreNBI && op != OpStore {
		return Verdict{}
	}
	hit, _ := d.dice.roll(d.Seed, d.Fraction, 0)
	return Verdict{Duplicate: hit}
}

// DropFaults discards a fraction of matching operations. Dropped blocking
// operations fail with ErrDropped; dropped non-blocking injections vanish
// silently — the loss a protocol must survive (or detectably stall on)
// when a completion notification or termination flag never lands.
// Seed 0 is a fixed seed, as in DelayFaults.
type DropFaults struct {
	// Fraction of matching operations to drop, in [0, 1].
	Fraction float64
	// Ops restricts injection to these operation kinds; empty means all
	// non-blocking kinds.
	Ops []Op
	// Match, if non-nil, further restricts injection (e.g. to one target
	// address). Evaluated after the Ops filter.
	Match func(op Op, from, to int, addr Addr) bool
	// Seed makes the injection reproducible (0 is a fixed seed).
	Seed int64

	dice    dice
	dropped atomic.Uint64
}

// Before implements FaultInjector.
func (d *DropFaults) Before(op Op, from, to int, addr Addr) Verdict {
	if !matchOps(d.Ops, op) || d.Match != nil && !d.Match(op, from, to, addr) {
		return Verdict{}
	}
	if hit, _ := d.dice.roll(d.Seed, d.Fraction, 0); !hit {
		return Verdict{}
	}
	d.dropped.Add(1)
	return Verdict{Drop: true}
}

// Dropped returns how many operations have been dropped so far, letting
// tests assert the injection actually fired.
func (d *DropFaults) Dropped() uint64 { return d.dropped.Load() }

// Partition simulates network partitions: operations crossing between
// sides fail with ErrPartitioned (blocking) or are silently lost
// (non-blocking). The partition is mutable at runtime, so a test can split
// the world mid-protocol and heal it later; a crash-restart of PE p is
// modeled as Split([]int{p}) followed by Heal once it "restarts".
type Partition struct {
	mu   sync.Mutex
	side map[int]int
}

// Split assigns each listed PE group to its own side; PEs not listed stay
// on side 0. Split replaces any previous partition.
func (p *Partition) Split(sides ...[]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.side = make(map[int]int)
	for i, group := range sides {
		for _, pe := range group {
			p.side[pe] = i + 1
		}
	}
}

// Heal removes the partition; all traffic flows again.
func (p *Partition) Heal() {
	p.mu.Lock()
	p.side = nil
	p.mu.Unlock()
}

// Before implements FaultInjector.
func (p *Partition) Before(op Op, from, to int, addr Addr) Verdict {
	p.mu.Lock()
	crossed := p.side != nil && p.side[from] != p.side[to]
	p.mu.Unlock()
	if !crossed {
		return Verdict{}
	}
	return Verdict{Drop: true, Err: ErrPartitioned}
}

// partitionCheck is a compile-time interface check.
var (
	_ FaultInjector = (*DelayFaults)(nil)
	_ FaultInjector = (*DuplicateFaults)(nil)
	_ FaultInjector = (*DropFaults)(nil)
	_ FaultInjector = (*Partition)(nil)
)
