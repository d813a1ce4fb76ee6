//go:build !amd64 || purego

package uts

// hasSHANI is false where the SHA-extension kernel is not built: Child uses
// crypto/sha1 (which on arm64 runs the SHA1 instructions itself).
const hasSHANI = false

// childBlockSHANI is never called here (hasSHANI is false); it keeps the
// kernel's tests compiling on every build.
func childBlockSHANI(out, in *[NodeStateSize]byte, i uint32) { *out = childGeneric(in, i) }
