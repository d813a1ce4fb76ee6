//go:build !linux

package shmem

import "time"

const futexSupported = false

// futexWait on hosts without futex(2) degrades to a bounded sleep, so the
// one wait loop polls there. Liveness is unchanged (it re-checks its word
// at least once per sleep); only wake latency differs.
func futexWait(_ *uint32, _ uint32, d time.Duration) {
	if d > 50*time.Microsecond {
		d = 50 * time.Microsecond
	}
	if d > 0 {
		time.Sleep(d)
	}
}

func futexWake(_ *uint32, _ int) {}
