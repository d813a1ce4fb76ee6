//go:build !linux || race

package shmem

import "unsafe"

// anonHeaps off linux, and in a race build (the detector watches Go memory
// only), is Go memory that starts on a cache line, as a mapping does.
func anonHeaps(size int) (*heapMapping, error) {
	words := make([]uint64, (size+LineSize)/WordSize)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*WordSize)
	off := int(-uintptr(unsafe.Pointer(&b[0])) & (LineSize - 1))
	return &heapMapping{b[off : off+size : off+size]}, nil
}
