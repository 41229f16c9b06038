//go:build amd64

// Package cpu holds the one CPUID verdict the packed kernels dispatch on
// (internal/kernels' P2P bodies, internal/expansion's M2L bodies).
package cpu

// AVX2 reports, from one CPUID read at package init, that the host runs
// AVX2 instructions and that the OS saves the ymm state.
var AVX2 = hasAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 { // xmm and ymm state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}
