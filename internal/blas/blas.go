// Package blas provides the small set of dense linear-algebra kernels the
// block sparse factorizations execute inside their tasks: matrix multiply,
// symmetric rank-k update, triangular solve, Cholesky and LU (with partial
// pivoting) factorization of dense panels. Matrices are stored row-major in
// flat float64 slices with an explicit leading dimension, so sub-blocks of
// larger panels can be addressed without copying.
//
// The two kernels that dominate Cholesky's run time, Gemm's A·Bᵀ case and
// Syrk, run on amd64 CPUs with AVX2 through a 4-row × 8-column assembly
// tile (ntkern_amd64.s): ntTiles packs eight rows of B into an l-major
// panel, and the tile keeps eight YMM accumulators, one VMULPD and one
// VADDPD per product and no FMA. The kernel is chosen once from CPUID (AVX2,
// with the OS saving YMM state per XGETBV). Leftover rows and columns,
// Syrk's diagonal band, other GOARCHes and CPUs without AVX2 use the
// pure-Go 2×4 register tile ntPair and dot, which is also the reference the
// tests hold the assembly to. The other kernels are plain Go loops, each a
// few percent of kernel time; the evaluation machine's vendor BLAS is
// replaced by the cost model in internal/machine.
//
// Both paths keep one per-element order contract: every C(i,j) of an A·Bᵀ
// product is a single accumulator that starts at zero, adds its k rounded
// products in ascending order and is scaled by alpha once, C += alpha·s. So
// factors are bit-identical across paths and to an untiled dot product per
// element.
package blas

import (
	"errors"
	"math"
)

// ErrNotPD is returned by Potrf when the matrix is not positive definite.
var ErrNotPD = errors.New("blas: matrix not positive definite")

// ErrSingular is returned by Getrf when no usable pivot exists.
var ErrSingular = errors.New("blas: matrix is singular to working precision")

// ErrPivotLen is returned by Getrf when the pivot slice holds fewer entries
// than the panel has columns.
var ErrPivotLen = errors.New("blas: pivot slice shorter than the panel width")

// Gemm computes C = C + alpha * op(A) * op(B) where op is identity or
// transpose, for row-major matrices: A is m×k (k×m if transA), B is k×n
// (n×k if transB), C is m×n, with leading dimensions lda, ldb, ldc.
func Gemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	switch {
	case !transA && !transB:
		for i := 0; i < m; i++ {
			ci := c[i*ldc : i*ldc+n]
			for l := 0; l < k; l++ {
				v := alpha * a[i*lda+l]
				if v == 0 {
					continue
				}
				bl := b[l*ldb : l*ldb+n]
				for j, bv := range bl {
					ci[j] += v * bv
				}
			}
		}
	case !transA && transB:
		m4, n8 := 0, 0
		if useAVX2 && m >= 4 && n >= 8 {
			m4, n8 = m&^3, n&^7
			ntTiles(m4, n8, k, alpha, a, lda, b, ldb, c, ldc, false)
		}
		// The tiled rows still need their columns from n8 on; the rows
		// below them need every column.
		for i := 0; i < m; i += 2 {
			j := 0
			if i < m4 {
				j = n8
			}
			if j == n {
				continue
			}
			bj, ci := b[j*ldb:], c[i*ldc+j:i*ldc+n]
			if i+1 < m {
				ntPair(n-j, k, alpha, a[i*lda:], a[(i+1)*lda:], bj, ldb, ci, c[(i+1)*ldc+j:])
				continue
			}
			ai := a[i*lda : i*lda+k]
			for q := range ci {
				ci[q] += alpha * dot(ai, bj[q*ldb:])
			}
		}
	case transA && !transB:
		for l := 0; l < k; l++ {
			al := a[l*lda : l*lda+m]
			bl := b[l*ldb : l*ldb+n]
			for i := 0; i < m; i++ {
				v := alpha * al[i]
				if v == 0 {
					continue
				}
				ci := c[i*ldc : i*ldc+n]
				for j, bv := range bl {
					ci[j] += v * bv
				}
			}
		}
	default: // transA && transB
		for i := 0; i < m; i++ {
			ci := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				s := 0.0
				for l := 0; l < k; l++ {
					s += a[l*lda+i] * b[j*ldb+l]
				}
				ci[j] += alpha * s
			}
		}
	}
}

// Syrk computes the lower triangle of C = C + alpha * A * Aᵀ where A is n×k
// row-major with leading dimension lda and C is n×n with leading dimension
// ldc. Only the lower triangle of C is referenced and updated.
func Syrk(n, k int, alpha float64, a []float64, lda int, c []float64, ldc int) {
	m4 := 0 // rows [0, m4) have columns [0, i&^7) done by the AVX2 tiles
	if useAVX2 && n >= 12 && k > 0 {
		m4 = n &^ 3
		ntTiles(m4, n&^7, k, alpha, a, lda, a, lda, c, ldc, true)
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		j := 0
		if i < m4 {
			j = i &^ 7
		}
		a0, a1 := a[i*lda:i*lda+k], a[(i+1)*lda:(i+1)*lda+k]
		c0, c1 := c[i*ldc:i*ldc+i+1], c[(i+1)*ldc:(i+1)*ldc+i+2]
		// Columns left of the diagonal are full for both rows; the three
		// elements on or next to the diagonal are scalar dots.
		ntPair(i-j, k, alpha, a0, a1, a[j*lda:], lda, c0[j:], c1[j:])
		c0[i] += alpha * dot(a0, a0)
		c1[i] += alpha * dot(a1, a0)
		c1[i+1] += alpha * dot(a1, a1)
	}
	if i < n {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+i+1]
		for j := range ci {
			ci[j] += alpha * dot(ai, a[j*lda:])
		}
	}
}

// ntPair adds alpha·a0·bⱼᵀ to c0[j] and alpha·a1·bⱼᵀ to c1[j] for every j
// in [0, n), where a0 and a1 hold at least k elements, c0 and c1 at least
// n, and bⱼ is the k-prefix of row j of the row-major b. Full groups of
// four columns go through a 2×4 register tile of eight independent
// accumulators; leftover columns through dot. Each element still sums its
// k products in ascending order into one accumulator and adds alpha times
// the sum once, so the result is bit-identical to an untiled dot product
// per element.
func ntPair(n, k int, alpha float64, a0, a1, b []float64, ldb int, c0, c1 []float64) {
	a0, a1 = a0[:k], a1[:k]
	c0, c1 = c0[:n], c1[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*ldb:][:k]
		b1 := b[(j+1)*ldb:][:k]
		b2 := b[(j+2)*ldb:][:k]
		b3 := b[(j+3)*ldb:][:k]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for l, x0 := range a0 {
			x1 := a1[l]
			y := b0[l]
			s00 += x0 * y
			s10 += x1 * y
			y = b1[l]
			s01 += x0 * y
			s11 += x1 * y
			y = b2[l]
			s02 += x0 * y
			s12 += x1 * y
			y = b3[l]
			s03 += x0 * y
			s13 += x1 * y
		}
		d0, d1 := c0[j:j+4], c1[j:j+4]
		d0[0] += alpha * s00
		d0[1] += alpha * s01
		d0[2] += alpha * s02
		d0[3] += alpha * s03
		d1[0] += alpha * s10
		d1[1] += alpha * s11
		d1[2] += alpha * s12
		d1[3] += alpha * s13
	}
	for ; j < n; j++ {
		bj := b[j*ldb:]
		c0[j] += alpha * dot(a0, bj)
		c1[j] += alpha * dot(a1, bj)
	}
}

// dot returns the sum of a[l]·b[l] over l in [0, len(a)), accumulated in
// ascending order.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for l, av := range a {
		s += av * b[l]
	}
	return s
}

// TrsmRightLowerT solves X * Lᵀ = B in place for X, where L is an n×n lower
// triangular matrix with unit or non-unit diagonal and B is m×n row-major.
// This is the "scale a subdiagonal block by the Cholesky factor" kernel:
// A_ik ← A_ik · L_kkᵀ⁻¹.
func TrsmRightLowerT(m, n int, l []float64, ldl int, b []float64, ldb int, unitDiag bool) {
	for i := 0; i < m; i++ {
		bi := b[i*ldb : i*ldb+n]
		for j := 0; j < n; j++ {
			s := bi[j]
			lj := l[j*ldl : j*ldl+n]
			for p := 0; p < j; p++ {
				s -= bi[p] * lj[p]
			}
			if unitDiag {
				bi[j] = s
			} else {
				bi[j] = s / lj[j]
			}
		}
	}
}

// TrsmLeftLowerUnit solves L * X = B in place for X, where L is m×m lower
// triangular with implicit unit diagonal and B is m×n row-major. This is the
// "compute a U block from a factored panel" kernel of LU.
func TrsmLeftLowerUnit(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		li := l[i*ldl : i*ldl+m]
		bi := b[i*ldb : i*ldb+n]
		for p := 0; p < i; p++ {
			v := li[p]
			if v == 0 {
				continue
			}
			bp := b[p*ldb : p*ldb+n]
			for j, bv := range bp {
				bi[j] -= v * bv
			}
		}
	}
}

// Potrf computes the Cholesky factorization A = L·Lᵀ of an n×n symmetric
// positive definite matrix in place, storing L in the lower triangle. The
// strict upper triangle is not referenced.
func Potrf(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		aj := a[j*lda : j*lda+j]
		for _, v := range aj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*lda+j]
			ai := a[i*lda : i*lda+j]
			for p, v := range aj {
				s -= ai[p] * v
			}
			a[i*lda+j] = s / d
		}
	}
	return nil
}

// Getrf computes an LU factorization with partial pivoting of an m×n panel
// (m >= n) in place: P·A = L·U with unit lower-triangular L stored below the
// diagonal and U on and above it. piv[j] records the row swapped into
// position j at step j (LAPACK-style ipiv, 0-based). Rows are swapped across
// the full panel width n. piv must hold at least n entries.
func Getrf(m, n int, a []float64, lda int, piv []int) error {
	if len(piv) < n {
		return ErrPivotLen
	}
	for j := 0; j < n; j++ {
		// Find pivot.
		p := j
		pv := math.Abs(a[j*lda+j])
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a[i*lda+j]); v > pv {
				pv, p = v, i
			}
		}
		if pv == 0 {
			return ErrSingular
		}
		piv[j] = p
		if p != j {
			rj := a[j*lda : j*lda+n]
			rp := a[p*lda : p*lda+n]
			for q := range rj {
				rj[q], rp[q] = rp[q], rj[q]
			}
		}
		d := a[j*lda+j]
		for i := j + 1; i < m; i++ {
			l := a[i*lda+j] / d
			a[i*lda+j] = l
			if l == 0 {
				continue
			}
			ri := a[i*lda+j+1 : i*lda+n]
			rj := a[j*lda+j+1 : j*lda+n]
			for q, v := range rj {
				ri[q] -= l * v
			}
		}
	}
	return nil
}

// Laswp applies the row interchanges recorded by Getrf to an m×n matrix:
// for j = 0..len(piv)-1, rows j and piv[j] are swapped.
func Laswp(n int, a []float64, lda int, piv []int) {
	for j, p := range piv {
		if p == j {
			continue
		}
		rj := a[j*lda : j*lda+n]
		rp := a[p*lda : p*lda+n]
		for q := range rj {
			rj[q], rp[q] = rp[q], rj[q]
		}
	}
}

// TrsvLower solves L·x = b in place for x (x holds b on entry), where L is
// an n×n non-unit lower triangular matrix.
func TrsvLower(n int, l []float64, ldl int, x []float64) {
	for i := 0; i < n; i++ {
		s := x[i]
		li := l[i*ldl : i*ldl+i]
		for p, v := range li {
			s -= v * x[p]
		}
		x[i] = s / l[i*ldl+i]
	}
}

// TrsvLowerT solves Lᵀ·x = b in place for x, where L is an n×n non-unit
// lower triangular matrix (so Lᵀ is upper triangular).
func TrsvLowerT(n int, l []float64, ldl int, x []float64) {
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for p := i + 1; p < n; p++ {
			s -= l[p*ldl+i] * x[p]
		}
		x[i] = s / l[i*ldl+i]
	}
}

// GemvSub computes y = y - A·x for a row-major m×n matrix A.
func GemvSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+n]
		s := 0.0
		for j, v := range ai {
			s += v * x[j]
		}
		y[i] -= s
	}
}

// GemvTSub computes y = y - Aᵀ·x for a row-major m×n matrix A (so y has n
// entries and x has m).
func GemvTSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		v := x[i]
		if v == 0 {
			continue
		}
		ai := a[i*lda : i*lda+n]
		for j, av := range ai {
			y[j] -= av * v
		}
	}
}

// FrobNorm returns the Frobenius norm of an m×n row-major matrix.
func FrobNorm(m, n int, a []float64, lda int) float64 {
	s := 0.0
	for i := 0; i < m; i++ {
		for _, v := range a[i*lda : i*lda+n] {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max |a_ij - b_ij| over an m×n region.
func MaxAbsDiff(m, n int, a []float64, lda int, b []float64, ldb int) float64 {
	d := 0.0
	for i := 0; i < m; i++ {
		ra := a[i*lda : i*lda+n]
		rb := b[i*ldb : i*ldb+n]
		for j := range ra {
			if v := math.Abs(ra[j] - rb[j]); v > d {
				d = v
			}
		}
	}
	return d
}
