//go:build amd64 && !purego

package uts

// hasSHANI reports whether Child runs childBlockSHANI: the CPU has the SHA
// extensions (CPUID leaf 7, EBX bit 29) and the SSSE3 and SSE4.1
// instructions the kernel loads and stores with (leaf 1, ECX bits 9 and 19).
var hasSHANI = detectSHANI()

func detectSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

// childBlockSHANI writes the SHA-1 digest of in followed by be32(i) to out:
// one compression of the block that message always pads to, on the SHA
// extensions. It is bit for bit childGeneric, which the tests hold it to.
//
// It exists because go1.24's amd64 crypto/sha1 has no SHA-extension path and
// took over half of a UTS run's CPU. Removal rule: delete it, with
// child_amd64.s and child_other.go, once the toolchain's crypto/sha1 reads
// within the parent's inter-quartile spread of it, that is once a build
// whose Child always calls childGeneric runs uts_t1_local no slower than
// this kernel by more than the distance between this kernel's quartiles
// (BenchmarkChild shows the per-child gap first).
//
//go:noescape
func childBlockSHANI(out, in *[NodeStateSize]byte, i uint32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
