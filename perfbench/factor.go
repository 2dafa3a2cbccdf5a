package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/sparse"
	"repro/rapid"
)

// runFactor runs factor-tight: set-up builds and compiles the problem
// setupReps times; each timed rep then goes from matrix to factor with
// fresh seeded values, and is checked outside its timed region.
func runFactor(o options) (*result, error) {
	res := newResult()
	var setups []float64
	var ref *rapid.Plan
	var refProg *rapid.Program
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := factorInstance(factorMatrix(o.seed, rep), o.seed)
		if err != nil {
			return nil, err
		}
		plan, err := rapid.Compile(inst.prog, inst.opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ref, refProg = plan, inst.prog
	}
	if !ref.Executable() {
		return nil, fmt.Errorf("factor-tight plan is not executable at capacity %d (MIN_MEM %d)", factorCapacity, ref.MinMem())
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return res, factorLayers(o, res, dur)
	}
	sim, err := rapid.Simulate(refProg, ref, rapid.SimOptions{})
	if err != nil {
		return nil, err
	}

	var solve, execT, peak []float64
	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	for rep := setupReps; rep == setupReps || time.Since(start) < dur; rep++ {
		res.attempted++
		// A clean heap per rep keeps one rep's garbage out of the next
		// one's time.
		runtime.GC()
		t0 := time.Now()
		a := factorMatrix(o.seed, rep)
		inst, err := factorInstance(a, o.seed+uint64(rep))
		if err != nil {
			return nil, err
		}
		plan, err := rapid.Compile(inst.prog, inst.opt)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		out, err := rapid.Execute(inst.prog, plan, rapid.ExecOptions{Kernel: inst.kernel, Init: inst.init})
		t2 := time.Now()
		if err != nil {
			res.fail("rep %d: %v", rep, err)
			continue
		}
		maxPeak := slices.Max(out.PeakUnits)
		switch {
		case !plan.Executable():
			res.fail("rep %d: plan not executable", rep)
		case plan.Schedule.Makespan != ref.Schedule.Makespan || plan.MinMem() != ref.MinMem():
			res.fail("rep %d: plan differs from set-up's for the same structure", rep)
		case maxPeak > factorCapacity:
			res.fail("rep %d: peak %d units exceeds capacity %d", rep, maxPeak, factorCapacity)
		default:
			if err := checkResidual(fmt.Sprintf("rep %d", rep), inst.residual(out.Objects)); err != nil {
				res.fail("%v", err)
				continue
			}
			solve = append(solve, t2.Sub(t0).Seconds())
			execT = append(execT, t2.Sub(t1).Seconds())
			peak = append(peak, float64(maxPeak))
		}
	}
	heapMB := heap.finish()
	n := len(solve)
	res.set("jobs_per_s", ratio(float64(n), sum(solve)), "1/s", n)
	res.set("latency_p50_ms", 1000*median(solve), "ms", n)
	res.set("latency_p99_ms", 1000*quantile(solve, 0.99), "ms", n)
	res.set("solve_s", median(solve), "s", n)
	res.set("exec_s", median(execT), "s", n)
	res.set("modeled_time_s", sim.ParallelTime, "virtual_s", 1)
	res.set("peak_mem_units", median(peak), "units", n)
	res.set("heap_peak_mb", heapMB, "MiB", 1)
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("failed_frac", float64(res.failed)/float64(res.attempted), "frac", res.attempted)
	return res, nil
}

// factorLayers is factor-tight's traced run: untraced and traced passes of
// one rep alternate for the run's length. The library path has no daemon,
// plan cache or journal, so the rapidd.*, journal.* and plancache.*
// metrics read 0 here.
func factorLayers(o options, res *result, dur time.Duration) error {
	rep := setupReps
	job := layerJob{
		id:     fmt.Sprintf("factor-rep%d", rep),
		kind:   "chol",
		matrix: func() *sparse.Matrix { return factorMatrix(o.seed, rep) },
		build:  func(a *sparse.Matrix) (*instance, error) { return factorInstance(a, o.seed+uint64(rep)) },
	}
	setDaemonMetrics(res, nil, 0, 0)
	return alternatePasses(o, []layerJob{job}, nil, false, 1, dur, res)
}
