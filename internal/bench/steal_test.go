package bench

import (
	"testing"
	"time"

	"sws/internal/shmem"
)

// BenchmarkStealWire measures the steal hot path — claim (fetch-add),
// block copy (get), completion notify (store-NBI) — per transport, with
// allocations visible under -benchmem. Zero latency model so the numbers
// isolate the wire path (marshalling, buffering, payload staging). b.N
// counts single-task steals, each from a one-task release.
func BenchmarkStealWire(b *testing.B) {
	kinds := []shmem.TransportKind{shmem.TransportLocal, shmem.TransportTCP}
	if shmem.ShmSupported() {
		kinds = append(kinds, shmem.TransportShm)
	}
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			durs, err := stealTimes(shmem.Config{Transport: kind}, protocols[1], 16, 2, 1, b.N) // SWS
			if err != nil {
				b.Fatal(err)
			}
			var total time.Duration
			for _, d := range durs {
				total += d
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/steal")
		})
	}
}
