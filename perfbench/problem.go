package main

import (
	"fmt"
	"math"

	"repro/internal/chol"
	"repro/internal/lu"
	"repro/internal/rapidd"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// residualLimit bounds every residual the benchmark accepts.
const residualLimit = 1e-10

// instance is one factorization problem, built and ready to compile.
type instance struct {
	prog   *rapid.Program
	opt    rapid.Options
	kernel rapid.KernelFunc
	init   rapid.InitFunc
	bufLen func(rapid.ObjID) int64
	// residual checks the factor a numeric run returned.
	residual func(objs map[rapid.ObjID][]float64) float64
}

// specMatrix generates the matrix of a daemon job spec exactly as rapidd
// does (same generators, same RNG draws in the same order), so a replayed
// spec fingerprints equal to the daemon's job.
func specMatrix(js rapidd.JobSpec) *sparse.Matrix {
	rng := util.NewRNG(js.Seed)
	nx := int(math.Sqrt(float64(js.N) * 1.3))
	if nx < 2 {
		nx = 2
	}
	ny := js.N / nx
	if ny < 2 {
		ny = 2
	}
	if js.Kind == "lu" {
		pat := sparse.AddRandomUnsymLinks(sparse.Grid2D(nx, ny, true), js.N/4, rng)
		return sparse.UnsymValues(pat, rng)
	}
	pat := sparse.AddRandomSymLinks(sparse.Grid2D(nx, ny, true), js.N/8, rng)
	pat = pat.PermuteSym(sparse.RCM(pat))
	return sparse.SPDValues(pat, rng)
}

// specInstance builds the task graph of a daemon job spec, as rapidd does.
func specInstance(js rapidd.JobSpec, a *sparse.Matrix, checkSeed uint64) (*instance, error) {
	opt := rapid.Options{Procs: js.Procs, Heuristic: rapid.MPO}
	if js.Kind == "lu" {
		return luInstance(a, lu.Options{Procs: js.Procs, BlockSize: js.Block}, opt, checkSeed)
	}
	return cholInstance(a, chol.Options{Procs: js.Procs, BlockSize: js.Block}, opt, checkSeed)
}

func cholInstance(a *sparse.Matrix, co chol.Options, opt rapid.Options, checkSeed uint64) (*instance, error) {
	pr, err := chol.Build(a, co)
	if err != nil {
		return nil, err
	}
	return &instance{
		prog: rapid.FromGraph(pr.G), opt: opt,
		kernel: pr.Kernel, init: pr.InitObject,
		residual: func(objs map[rapid.ObjID][]float64) float64 { return cholResidual(a, pr, objs, checkSeed) },
	}, nil
}

func luInstance(a *sparse.Matrix, lo lu.Options, opt rapid.Options, checkSeed uint64) (*instance, error) {
	pr, err := lu.Build(a, lo)
	if err != nil {
		return nil, err
	}
	return &instance{
		prog: rapid.FromGraph(pr.G), opt: opt,
		kernel: pr.Kernel, init: pr.InitObject, bufLen: pr.BufLen,
		residual: func(objs map[rapid.ObjID][]float64) float64 { return luResidual(a, pr, objs, checkSeed) },
	}, nil
}

// factorCapacity pins factor-tight's per-processor memory at about 30% of
// the schedule's no-recycling requirement (TOT = 4,265,984 units). It is an
// absolute number so that a scheduler change cannot move its own budget.
const factorCapacity = 1_280_000

// factorMatrix is factor-tight's input: BCSSTK15Like, RCM-ordered, with
// SPD values drawn from the seed.
func factorMatrix(seed uint64, rep int) *sparse.Matrix {
	pat := sparse.BCSSTK15Like()
	pat = pat.PermuteSym(sparse.RCM(pat))
	return sparse.SPDValues(pat, util.NewRNG(util.Hash64(seed, tagFactor, uint64(rep))))
}

func factorInstance(a *sparse.Matrix, checkSeed uint64) (*instance, error) {
	return cholInstance(a, chol.Options{Procs: 4, BlockSize: 32},
		rapid.Options{Procs: 4, Heuristic: rapid.DTSMerge, Memory: factorCapacity}, checkSeed)
}

// checkVector is the seeded probe vector of the residual checks.
func checkVector(n int, seed uint64) []float64 {
	rng := util.NewRNG(util.Hash64(seed, tagCheck))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// matVec returns A·v for a CSC matrix.
func matVec(a *sparse.Matrix, v []float64) []float64 {
	y := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		vals := a.ColVal(j)
		for k, i := range a.Col(j) {
			y[i] += vals[k] * v[j]
		}
	}
	return y
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// cholResidual returns ‖A·v − L(Lᵀ·v)‖/‖A·v‖ for a seeded v, reading L
// from the factored blocks: O(nnz(L)) rather than a dense reconstruction.
func cholResidual(a *sparse.Matrix, pr *chol.Problem, objs map[rapid.ObjID][]float64, seed uint64) float64 {
	v := checkVector(a.N, seed)
	// forEach visits every stored entry L[r][c] (c <= r) of the factor.
	forEach := func(f func(r, c int, x float64)) bool {
		for j := 0; j < pr.NB; j++ {
			for _, i := range pr.Rows[j] {
				id, ok := pr.BlockObj(int(i), j)
				buf := objs[id]
				rows, cols := pr.BlockDim(int(i)), pr.BlockDim(j)
				if !ok || len(buf) < rows*cols {
					return false
				}
				r0, c0 := int(i)*pr.W, j*pr.W
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						if int(i) == j && c > r {
							break
						}
						f(r0+r, c0+c, buf[r*cols+c])
					}
				}
			}
		}
		return true
	}
	w := make([]float64, a.N) // Lᵀ·v
	if !forEach(func(r, c int, x float64) { w[c] += x * v[r] }) {
		return math.Inf(1)
	}
	u := make([]float64, a.N) // L·w
	forEach(func(r, c int, x float64) { u[r] += x * w[c] })
	av := matVec(a, v)
	for i := range u {
		u[i] -= av[i]
	}
	return norm2(u) / norm2(av)
}

// luResidual solves A·x = b (b = A·v for a seeded v) through
// lu.Problem.Solve and returns ‖A·x − b‖/‖b‖.
func luResidual(a *sparse.Matrix, pr *lu.Problem, objs map[rapid.ObjID][]float64, seed uint64) float64 {
	for k := 0; k < pr.NB; k++ {
		if objs[pr.PanelObj(k)] == nil {
			return math.Inf(1)
		}
	}
	b := matVec(a, checkVector(a.N, seed))
	r := matVec(a, pr.Solve(objs, b))
	for i := range r {
		r[i] -= b[i]
	}
	return norm2(r) / norm2(b)
}

// checkLUJob checks a served LU job with verify:true. rapidd reports, as
// its "residual", the forward error max|x − x*| for an x* it draws from
// the job seed; that grows with the matrix's condition number, so it is
// no residual to hold against residualLimit. Instead the job is executed
// again in-process exactly as the daemon executes it, its factor must have
// ‖A·x − b‖/‖b‖ within the limit, and the daemon's value must equal the
// forward error of that execution, which ties the daemon's factor to the
// checked one.
func checkLUJob(js rapidd.JobSpec, daemonValue float64) error {
	a := specMatrix(js)
	pr, err := lu.Build(a, lu.Options{Procs: js.Procs, BlockSize: js.Block})
	if err != nil {
		return err
	}
	prog := rapid.FromGraph(pr.G)
	plan, err := rapid.Compile(prog, rapid.Options{Procs: js.Procs, Heuristic: rapid.MPO})
	if err != nil {
		return err
	}
	rep, err := rapid.Execute(prog, plan, rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject, BufLen: pr.BufLen})
	if err != nil {
		return err
	}
	if err := checkResidual("re-executed factor", luResidual(a, pr, rep.Objects, js.Seed)); err != nil {
		return err
	}
	// The daemon's x* and b, as rapidd draws them.
	rng := util.NewRNG(js.Seed + 12345)
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	x := pr.Solve(rep.Objects, matVec(a, xTrue))
	fwd := 0.0
	for i := range x {
		fwd = math.Max(fwd, math.Abs(x[i]-xTrue[i]))
	}
	if fwd != daemonValue {
		return fmt.Errorf("daemon forward error %g differs from the re-execution's %g", daemonValue, fwd)
	}
	return nil
}

// checkResidual reports a residual that is not finite or exceeds the limit.
func checkResidual(what string, r float64) error {
	if math.IsNaN(r) || r > residualLimit {
		return fmt.Errorf("%s: residual %.3g exceeds %.0e", what, r, residualLimit)
	}
	return nil
}
