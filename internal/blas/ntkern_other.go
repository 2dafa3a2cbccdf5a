//go:build !amd64

package blas

func hasAVX2() bool { return false }

// ntKern4x8 exists only on amd64; useAVX2 is false elsewhere, so the
// Gemm and Syrk never call this.
func ntKern4x8(k int, alpha float64, a *float64, lda int, p *float64, c *float64, ldc int) {
	panic("blas: AVX2 kernel called on a non-amd64 build")
}
