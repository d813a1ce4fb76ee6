//go:build !race

package shmem

import (
	"runtime"
	"syscall"
)

// anonHeaps maps size bytes of heaps and rings, private and anonymous: reserved
// without a charge (MAP_NORESERVE), a page committed and zeroed by the
// kernel at its first touch, the whole unmapped by heapMapping's finalizer.
func anonHeaps(size int) (*heapMapping, error) {
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, err
	}
	h := &heapMapping{data}
	// Munmap fails only for a range never mapped; a finalizer has no one to tell.
	runtime.SetFinalizer(h, func(h *heapMapping) { _ = syscall.Munmap(h.data) })
	return h, nil
}
