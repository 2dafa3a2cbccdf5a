package blas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/util"
)

func randMat(rng *util.RNG, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func naiveGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA {
			return a[l*lda+i]
		}
		return a[i*lda+l]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b[j*ldb+l]
		}
		return b[l*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

// kernelSizes covers the scalar edges (0–9) and 16, 32 and 64 (two, four
// and eight 8-wide strips) with their neighbours, so every tile/leftover
// split of the 4×8 AVX2 tile and the 2×4 Go tile occurs, and Syrk's
// diagonal band falls on both alignments of a 4-row tile against an
// 8-column strip.
var kernelSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65}

// forEachPath runs f once per kernel path: path=simd with the AVX2 tile
// (skipped on CPUs without AVX2) and path=go with the pure-Go reference.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	for _, simd := range []bool{true, false} {
		t.Run(pathName(simd), func(t *testing.T) {
			usePath(t, simd)
			f(t)
		})
	}
}

// usePath selects the kernel path until tb ends, skipping the AVX2 path on
// CPUs without it.
func usePath(tb testing.TB, simd bool) {
	if simd && !hasAVX2() {
		tb.Skip("CPU has no AVX2")
	}
	saved := useAVX2
	useAVX2 = simd
	tb.Cleanup(func() { useAVX2 = saved })
}

func pathName(simd bool) string {
	if simd {
		return "path=simd"
	}
	return "path=go"
}

// paddedMat returns a rows×cols matrix stored with leading dimension
// cols+pad, whose padding holds NaN so that any read outside the sub-block
// poisons the result.
func paddedMat(rng *util.RNG, rows, cols, pad int) ([]float64, int) {
	ld := cols + pad
	a := make([]float64, rows*ld)
	for i := 0; i < rows; i++ {
		for j := 0; j < ld; j++ {
			if j < cols {
				a[i*ld+j] = rng.NormFloat64()
			} else {
				a[i*ld+j] = math.NaN()
			}
		}
	}
	return a, ld
}

// sameBits reports the first element of the rows×cols region (restricted to
// the lower triangle when lower is set) where got and want differ in their
// bit patterns.
func sameBits(rows, cols int, got, want []float64, ld int, lower bool) (int, int, bool) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if lower && j > i {
				continue
			}
			if math.Float64bits(got[i*ld+j]) != math.Float64bits(want[i*ld+j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestGemmAllVariants checks every transpose case against naiveGemm over
// edge and block sizes, on sub-blocks whose leading dimensions exceed their
// widths, on both kernel paths. The NT case, which the Cholesky update
// kernel uses, must match naiveGemm's per-element ascending-order sum bit
// for bit; the others, which fold alpha into the products, to a rounding
// tolerance.
func TestGemmAllVariants(t *testing.T) { forEachPath(t, testGemmAllVariants) }

func testGemmAllVariants(t *testing.T) {
	rng := util.NewRNG(1)
	for _, tA := range []bool{false, true} {
		for _, tB := range []bool{false, true} {
			for _, m := range kernelSizes {
				for _, n := range kernelSizes {
					for _, k := range kernelSizes {
						pad := (m + n + k) % 3
						ar, ac := m, k
						if tA {
							ar, ac = k, m
						}
						br, bc := k, n
						if tB {
							br, bc = n, k
						}
						a, lda := paddedMat(rng, ar, ac, pad)
						b, ldb := paddedMat(rng, br, bc, pad+1)
						c0, ldc := paddedMat(rng, m, n, 2-pad)
						for _, alpha := range []float64{-1, 0.5} {
							c1 := append([]float64(nil), c0...)
							c2 := append([]float64(nil), c0...)
							Gemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, c1, ldc)
							naiveGemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, c2, ldc)
							if !tA && tB {
								if i, j, ok := sameBits(m, n, c1, c2, ldc, false); !ok {
									t.Fatalf("Gemm NT m=%d n=%d k=%d alpha=%v: C(%d,%d) = %v, want bits of %v",
										m, n, k, alpha, i, j, c1[i*ldc+j], c2[i*ldc+j])
								}
							} else if d := MaxAbsDiff(m, n, c1, ldc, c2, ldc); !(d <= 1e-12) {
								t.Fatalf("Gemm(tA=%v,tB=%v) m=%d n=%d k=%d alpha=%v: diff %v", tA, tB, m, n, k, alpha, d)
							}
							for i := range c1 {
								if i%ldc >= n && !math.IsNaN(c1[i]) {
									t.Fatalf("Gemm(tA=%v,tB=%v) m=%d n=%d k=%d wrote C padding at %d", tA, tB, m, n, k, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestGemmSubBlockLeadingDim(t *testing.T) {
	// Multiply sub-blocks of a larger panel to exercise lda != n.
	rng := util.NewRNG(2)
	big := randMat(rng, 8, 8)
	a := big[2*8+1:] // 3x2 sub-block at (2,1), lda 8
	b := randMat(rng, 2, 4)
	c := make([]float64, 3*4)
	Gemm(false, false, 3, 4, 2, 1, a, 8, b, 4, c, 4)
	want := make([]float64, 3*4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 2; l++ {
				want[i*4+j] += big[(2+i)*8+1+l] * b[l*4+j]
			}
		}
	}
	if d := MaxAbsDiff(3, 4, c, 4, want, 4); d > 1e-13 {
		t.Fatalf("sub-block Gemm diff %v", d)
	}
}

// TestSyrkMatchesGemm checks that Syrk's lower triangle equals naiveGemm's
// A·Aᵀ bit for bit and that it leaves the strict upper triangle and the
// padding of C alone, on both kernel paths.
func TestSyrkMatchesGemm(t *testing.T) { forEachPath(t, testSyrkMatchesGemm) }

func testSyrkMatchesGemm(t *testing.T) {
	rng := util.NewRNG(3)
	for _, n := range kernelSizes {
		for _, k := range kernelSizes {
			for _, alpha := range []float64{-1, 0.5} {
				pad := (n + k) % 3
				a, lda := paddedMat(rng, n, k, pad)
				c1, ldc := paddedMat(rng, n, n, 2-pad)
				c0 := append([]float64(nil), c1...)
				c2 := append([]float64(nil), c1...)
				Syrk(n, k, alpha, a, lda, c1, ldc)
				naiveGemm(false, true, n, n, k, alpha, a, lda, a, lda, c2, ldc)
				if i, j, ok := sameBits(n, n, c1, c2, ldc, true); !ok {
					t.Fatalf("Syrk n=%d k=%d alpha=%v: C(%d,%d) = %v, want bits of %v",
						n, k, alpha, i, j, c1[i*ldc+j], c2[i*ldc+j])
				}
				for i := range c1 {
					if r, col := i/ldc, i%ldc; col > r || col >= n {
						if math.Float64bits(c1[i]) != math.Float64bits(c0[i]) {
							t.Fatalf("Syrk n=%d k=%d touched C(%d,%d) outside the lower triangle", n, k, r, col)
						}
					}
				}
			}
		}
	}
}

func spdMatrix(rng *util.RNG, n int) []float64 {
	b := randMat(rng, n, n)
	a := make([]float64, n*n)
	Gemm(false, true, n, n, n, 1, b, n, b, n, a, n)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func TestPotrfReconstructs(t *testing.T) {
	rng := util.NewRNG(4)
	n := 12
	a := spdMatrix(rng, n)
	l := append([]float64(nil), a...)
	if err := Potrf(n, l, n); err != nil {
		t.Fatal(err)
	}
	// Zero the strict upper triangle of L, then compute L·Lᵀ.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	rec := make([]float64, n*n)
	Gemm(false, true, n, n, n, 1, l, n, l, n, rec, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(rec[i*n+j]-a[i*n+j]) > 1e-9 {
				t.Fatalf("LLᵀ != A at (%d,%d): %v vs %v", i, j, rec[i*n+j], a[i*n+j])
			}
		}
	}
}

func TestPotrfNotPD(t *testing.T) {
	a := []float64{1, 2, 2, 1} // indefinite
	if err := Potrf(2, a, 2); err != ErrNotPD {
		t.Fatalf("want ErrNotPD, got %v", err)
	}
}

func TestGetrfReconstructs(t *testing.T) {
	rng := util.NewRNG(5)
	m, n := 9, 6
	a := randMat(rng, m, n)
	f := append([]float64(nil), a...)
	piv := make([]int, n)
	if err := Getrf(m, n, f, n, piv); err != nil {
		t.Fatal(err)
	}
	// Reconstruct L·U and compare with P·A.
	pa := append([]float64(nil), a...)
	Laswp(n, pa, n, piv)
	lu := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			kmax := j
			if i < kmax {
				kmax = i
			}
			for k := 0; k < kmax; k++ {
				s += f[i*n+k] * f[k*n+j]
			}
			if i <= j {
				s += f[i*n+j] // diagonal of L is 1
			} else {
				s += f[i*n+j] * f[j*n+j]
			}
			lu[i*n+j] = s
		}
	}
	if d := MaxAbsDiff(m, n, lu, n, pa, n); d > 1e-10 {
		t.Fatalf("LU != PA, diff %v", d)
	}
}

func TestGetrfPivotsAreUsed(t *testing.T) {
	// First pivot is tiny; partial pivoting must select row 1.
	a := []float64{1e-20, 1, 1, 1}
	piv := make([]int, 2)
	if err := Getrf(2, 2, a, 2, piv); err != nil {
		t.Fatal(err)
	}
	if piv[0] != 1 {
		t.Fatalf("pivot not selected: %v", piv)
	}
}

func TestGetrfSingular(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	piv := make([]int, 2)
	if err := Getrf(2, 2, a, 2, piv); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestGetrfPivotLen(t *testing.T) {
	a := []float64{2, 1, 1, 3}
	if err := Getrf(2, 2, a, 2, make([]int, 1)); !errors.Is(err, ErrPivotLen) {
		t.Fatalf("want ErrPivotLen, got %v", err)
	}
	if a[0] != 2 || a[1] != 1 || a[2] != 1 || a[3] != 3 {
		t.Fatalf("Getrf modified the panel before rejecting the pivot slice: %v", a)
	}
}

func TestTrsmRightLowerT(t *testing.T) {
	rng := util.NewRNG(6)
	m, n := 5, 4
	l := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		l[i*n+i] = 2 + math.Abs(l[i*n+i])
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmRightLowerT(m, n, l, n, x, n, false)
	// Check X·Lᵀ == B.
	rec := make([]float64, m*n)
	Gemm(false, true, m, n, n, 1, x, n, l, n, rec, n)
	if d := MaxAbsDiff(m, n, rec, n, b, n); d > 1e-10 {
		t.Fatalf("X·Lᵀ != B, diff %v", d)
	}
}

func TestTrsmLeftLowerUnit(t *testing.T) {
	rng := util.NewRNG(7)
	m, n := 4, 6
	l := randMat(rng, m, m)
	for i := 0; i < m; i++ {
		l[i*m+i] = 1
		for j := i + 1; j < m; j++ {
			l[i*m+j] = 0
		}
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmLeftLowerUnit(m, n, l, m, x, n)
	rec := make([]float64, m*n)
	Gemm(false, false, m, n, m, 1, l, m, x, n, rec, n)
	if d := MaxAbsDiff(m, n, rec, n, b, n); d > 1e-10 {
		t.Fatalf("L·X != B, diff %v", d)
	}
}

func TestFrobNorm(t *testing.T) {
	a := []float64{3, 4, 0, 0}
	if v := FrobNorm(2, 2, a, 2); math.Abs(v-5) > 1e-15 {
		t.Fatalf("FrobNorm = %v, want 5", v)
	}
}

// sinkC keeps benchmark results live.
var sinkC []float64

// benchKernel times f on w×w operands and reports GFLOP/s, where one call
// performs flops floating-point operations.
func benchKernel(b *testing.B, flops float64, f func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmNT times the update kernel of Cholesky (C -= A·Bᵀ) on the
// block sizes the paper tables (w=8) and the factor benchmark (w=32) use,
// once per kernel path.
func BenchmarkGemmNT(b *testing.B) {
	for _, w := range []int{8, 32} {
		benchPaths(b, w, func(b *testing.B) {
			rng := util.NewRNG(11)
			x, y, c := randMat(rng, w, w), randMat(rng, w, w), randMat(rng, w, w)
			sinkC = c
			benchKernel(b, 2*float64(w*w*w), func() { Gemm(false, true, w, w, w, -1, x, w, y, w, c, w) })
		})
	}
}

// BenchmarkSyrk times the lower-triangle Cholesky syrk kernel (C -= A·Aᵀ),
// once per kernel path.
func BenchmarkSyrk(b *testing.B) {
	for _, w := range []int{8, 32} {
		benchPaths(b, w, func(b *testing.B) {
			rng := util.NewRNG(12)
			x, c := randMat(rng, w, w), randMat(rng, w, w)
			sinkC = c
			benchKernel(b, float64(w*(w+1)*w), func() { Syrk(w, w, -1, x, w, c, w) })
		})
	}
}

// benchPaths runs f as the sub-benchmarks w=<w>/path=simd (skipped without
// AVX2) and w=<w>/path=go.
func benchPaths(b *testing.B, w int, f func(b *testing.B)) {
	for _, simd := range []bool{true, false} {
		b.Run(fmt.Sprintf("w=%d/%s", w, pathName(simd)), func(b *testing.B) {
			usePath(b, simd)
			f(b)
		})
	}
}

// FuzzNTKernel checks that the AVX2 path of Gemm NT and Syrk writes the
// same bits as the pure-Go path on fuzzer-chosen shapes (m, n, k < 40),
// leading-dimension padding, alpha and element values, which the fuzzer
// supplies as raw float64 bit patterns so ±0, ±Inf, NaN and subnormals
// occur. NaN payloads are exempt, not NaN-ness: when two NaNs meet, x86
// propagates the one in the first operand, and for a commutative scalar
// add or multiply the Go compiler picks that order freely.
func FuzzNTKernel(f *testing.F) {
	var specials []byte
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -0x1p-1022, 1e308, -3.5, 0.1} {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	f.Add(uint8(9), uint8(17), uint8(5), uint8(1), -1.0, specials)
	f.Add(uint8(33), uint8(16), uint8(32), uint8(0), 0.5, specials[8:40])
	f.Add(uint8(4), uint8(8), uint8(1), uint8(3), math.Inf(-1), specials[16:])
	f.Add(uint8(20), uint8(24), uint8(7), uint8(2), -1.0, []byte{})
	f.Fuzz(func(t *testing.T, m, n, k, pad uint8, alpha float64, vals []byte) {
		if !hasAVX2() {
			t.Skip("CPU has no AVX2")
		}
		mm, nn, kk, pd := int(m%40), int(n%40), int(k%40), int(pad%4)
		e := 0
		// mat returns a rows×cols matrix with leading dimension cols+pd
		// filled, padding included, from vals.
		mat := func(rows, cols int) ([]float64, int) {
			ld := cols + pd
			x := make([]float64, rows*ld)
			for i := range x {
				if len(vals) < 8 {
					x[i] = float64(e%7)/3 - 1
				} else {
					o := 8 * (e % (len(vals) / 8))
					x[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[o:]))
				}
				e++
			}
			return x, ld
		}
		// both runs call on a fresh copy of c per path.
		both := func(c []float64, call func(c []float64)) (simd, gop []float64) {
			defer func(v bool) { useAVX2 = v }(useAVX2)
			simd, gop = append([]float64(nil), c...), append([]float64(nil), c...)
			useAVX2 = true
			call(simd)
			useAVX2 = false
			call(gop)
			return simd, gop
		}
		a, lda := mat(mm, kk)
		b, ldb := mat(nn, kk)
		c, ldc := mat(mm, nn)
		simd, gop := both(c, func(c []float64) { Gemm(false, true, mm, nn, kk, alpha, a, lda, b, ldb, c, ldc) })
		if i, ok := sameBitsOrNaN(simd, gop); !ok {
			t.Fatalf("Gemm NT m=%d n=%d k=%d ld=%d,%d,%d alpha=%v: C[%d] simd %v (%#x), go %v (%#x)",
				mm, nn, kk, lda, ldb, ldc, alpha, i, simd[i], math.Float64bits(simd[i]), gop[i], math.Float64bits(gop[i]))
		}
		s, lds := mat(nn, nn)
		simd, gop = both(s, func(c []float64) { Syrk(nn, kk, alpha, b, ldb, c, lds) })
		if i, ok := sameBitsOrNaN(simd, gop); !ok {
			t.Fatalf("Syrk n=%d k=%d ld=%d,%d alpha=%v: C[%d] simd %v (%#x), go %v (%#x)",
				nn, kk, ldb, lds, alpha, i, simd[i], math.Float64bits(simd[i]), gop[i], math.Float64bits(gop[i]))
		}
	})
}

// sameBitsOrNaN reports the first index where x and y differ in their bits,
// treating any two NaNs as equal.
func sameBitsOrNaN(x, y []float64) (int, bool) {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
			return i, false
		}
	}
	return 0, true
}
