package blas

// ntKern4x8 computes C += alpha·A·Pᵀ for a 4×8 tile with AVX2; see
// ntkern_amd64.s. The caller guarantees that a covers four rows of k
// elements at stride lda, p a packed k×8 panel and c four rows of eight at
// stride ldc.
//
//go:noescape
func ntKern4x8(k int, alpha float64, a *float64, lda int, p *float64, c *float64, ldc int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves YMM state
// across context switches (OSXSAVE set and XCR0 enabling SSE and AVX state).
func hasAVX2() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
