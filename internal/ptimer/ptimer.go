// Package ptimer provides calibrated interval timers for the runtime's
// steal/search accounting.
//
// The paper's measurements use TSC-based timers calibrated every run. Go
// exposes a monotonic clock through time.Now rather than raw TSC access,
// so the equivalent here is to measure the fixed overhead of a
// time.Now()/time.Since pair at startup and subtract it from every
// recorded interval. For the microsecond-scale intervals the benchmarks
// record (a steal is a handful of round-trips), this keeps accumulated
// timer overhead from masquerading as protocol time.
package ptimer

import (
	"sync"
	"time"
)

// Calibration captures the measured cost of one Now/Since pair.
type Calibration struct {
	// Overhead is subtracted from every interval measured via Since.
	Overhead time.Duration
}

// calibrateSamples is the number of timer pairs measured by Calibrate.
const calibrateSamples = 4096

// Calibrate returns the monotonic-clock read overhead on this machine,
// measured once per process (the paper calibrates per run; a process is a
// run): every pool of every fleet shares the one measurement instead of
// paying ~0.5 ms of set-up each.
func Calibrate() Calibration { return calibrated() }

var calibrated = sync.OnceValue(func() Calibration {
	// Warm the path.
	for i := 0; i < 64; i++ {
		_ = time.Since(time.Now())
	}
	start := time.Now()
	for i := 0; i < calibrateSamples; i++ {
		_ = time.Since(time.Now())
	}
	total := time.Since(start)
	// Each loop iteration performs two clock reads (Now + Since's
	// internal Now); the enclosing pair adds one more pair total, which
	// is noise at this sample count.
	per := total / (calibrateSamples)
	return Calibration{Overhead: per}
})

// Since returns the calibrated elapsed time since start: the raw interval
// minus the measured clock overhead, clamped at zero.
func (c Calibration) Since(start time.Time) time.Duration {
	d := time.Since(start) - c.Overhead
	if d < 0 {
		return 0
	}
	return d
}
