package blas

import "sync"

// useAVX2 routes Gemm's A·Bᵀ case and Syrk's off-diagonal tiles through the
// AVX2 4×8 kernel. It is set once from CPUID; tests clear it to run the
// pure-Go path, the reference the kernel must match bit for bit.
var useAVX2 = hasAVX2()

// packPool recycles the panels ntTiles packs B into, so the kernels do not
// allocate per call.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// ntTiles adds alpha·A·Bᵀ to C with the AVX2 kernel, one 4-row × 8-column
// tile at a time, over rows [0, m4) and columns [0, n8), both multiples of
// the tile sides. With lower set it computes only the tiles strictly below
// the diagonal (rows i ≥ j+8 of column strip j), which is Syrk's share: row
// i then has columns [0, i&^7) done. k must be positive.
func ntTiles(m4, n8, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, lower bool) {
	// The kernel goes through raw pointers; these make a short a or c
	// panic here, as the Go path would.
	_ = a[(m4-1)*lda+k-1]
	_ = c[(m4-1)*ldc+n8-1]
	pp := packPool.Get().(*[]float64)
	if cap(*pp) < 8*k {
		*pp = make([]float64, 8*k)
	}
	p := (*pp)[:8*k]
	for j := 0; j < n8; j += 8 {
		i := 0
		if lower {
			i = j + 8
		}
		if i >= m4 {
			break
		}
		packB(k, b[j*ldb:], ldb, p)
		for ; i < m4; i += 4 {
			ntKern4x8(k, alpha, &a[i*lda], lda, &p[0], &c[i*ldc+j], ldc)
		}
	}
	packPool.Put(pp)
}

// packB copies the k-prefixes of rows 0–7 of b into the l-major k×8 panel
// p: p[8l+q] = b[q·ldb+l].
func packB(k int, b []float64, ldb int, p []float64) {
	b0, b1, b2, b3 := b[:k], b[ldb:][:k], b[2*ldb:][:k], b[3*ldb:][:k]
	b4, b5, b6, b7 := b[4*ldb:][:k], b[5*ldb:][:k], b[6*ldb:][:k], b[7*ldb:][:k]
	p = p[:8*k]
	for l := range b0 {
		q := p[8*l:][:8]
		q[0], q[1], q[2], q[3] = b0[l], b1[l], b2[l], b3[l]
		q[4], q[5], q[6], q[7] = b4[l], b5[l], b6[l], b7[l]
	}
}
