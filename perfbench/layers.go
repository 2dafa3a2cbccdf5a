package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/rapid"
)

// layerJob is one problem the per-layer pass drives through every layer's
// public calls, in the order the serving path makes them: matrix →
// task graph → fingerprint → plan cache (or Compile) → verifier →
// executor → journal, plus the layer calls that path hides (the
// step-by-step planner, the codec, a structure-only run and the
// simulator).
type layerJob struct {
	id string
	// kind ("chol" or "lu") names the layer that builds the task graph.
	kind   string
	matrix func() *sparse.Matrix
	build  func(a *sparse.Matrix) (*instance, error)
	// spec is the journaled request body (serve jobs only).
	spec []byte
	// daemonFP is the fingerprint the daemon reported ("" off the daemon).
	daemonFP string
}

// layerEnv is what the jobs of one pass share.
type layerEnv struct {
	rec   *recorder
	cache *rapid.PlanCache // nil: the library path, plain Compile
	jnl   *journal.Journal // nil: nothing journaled
	seq   uint64           // journal sequence numbers
	stats *layerStats      // nil on the untraced pass
	check func(error)      // counts a failed check
}

// layerStats collects one value per job (or per call) for each layer
// metric.
type layerStats struct {
	matrixMS, taskgraphMS, taskgraphAllocs, tasks, objects []float64
	scheduleMS, memPlanMS, mapsPerProc, verifyMS           []float64
	fingerprintMS, fingerprintBytes, encodeMS, decodeMS    []float64
	structMS, simulateMS                                   []float64
	state                                                  [proto.NumStates][]float64
	messages, addrPackages, suspended, blocked             []float64
	kernelCalls, kernelBusy, kernelFlops, kernelBytes      []float64
	appendUS                                               []float64
	journalBytes                                           int
	hits, lookups                                          int
}

// allocCounters reads the cumulative heap allocation counters (objects,
// bytes) without stopping the world.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// kernelMeter wraps a kernel to time each call.
type kernelMeter struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (m *kernelMeter) wrap(k rapid.KernelFunc) rapid.KernelFunc {
	return func(t rapid.TaskID, get func(rapid.ObjID) []float64) error {
		t0 := time.Now()
		err := k(t, get)
		m.busy.Add(int64(time.Since(t0)))
		m.calls.Add(1)
		return err
	}
}

// runLayers drives one job through every layer, recording a span per call
// (when the recorder is on) and checking each result.
func runLayers(env *layerEnv, j layerJob) error {
	rec, st := env.rec, env.stats
	root := rec.begin("job.total", j.id, 0)
	defer rec.finish(root)
	call := func(name string, f func() error) (time.Duration, error) {
		id := rec.begin(name, j.id, root)
		err := f()
		return rec.finish(id), err
	}

	var a *sparse.Matrix
	dMatrix, _ := call("sparse.Generate", func() error { a = j.matrix(); return nil })
	// Allocation counters are read only when tracing, outside the spans.
	allocs := func() (uint64, uint64) {
		if st == nil {
			return 0, 0
		}
		return allocCounters()
	}
	var inst *instance
	o0, _ := allocs()
	dBuild, err := call(j.kind+".Build", func() (err error) { inst, err = j.build(a); return err })
	o1, _ := allocs()
	if err != nil {
		return err
	}
	g := inst.prog.G

	var fp string
	_, b0 := allocs()
	dFP, _ := call("plan.Fingerprint", func() error { fp = rapid.Fingerprint(inst.prog, inst.opt); return nil })
	_, b1 := allocs()
	if j.daemonFP != "" && fp != j.daemonFP {
		env.check(fmt.Errorf("%s: fingerprint %s differs from the daemon's %s", j.id, fp, j.daemonFP))
	}

	var plan *rapid.Plan
	if env.cache != nil {
		var src rapid.CacheSource
		_, err = call("plancache.CompileCached", func() (err error) {
			plan, src, err = rapid.CompileCached(inst.prog, inst.opt, env.cache)
			return err
		})
		if st != nil {
			st.lookups++
			if src != rapid.FromCompile {
				st.hits++
			}
		}
	} else {
		_, err = call("rapid.Compile", func() (err error) { plan, err = rapid.Compile(inst.prog, inst.opt); return err })
	}
	if err != nil {
		return err
	}
	if !plan.Executable() {
		env.check(fmt.Errorf("%s: plan not executable (MIN_MEM %d, capacity %d)", j.id, plan.MinMem(), plan.Capacity))
		return nil
	}

	dSched, dMem, err := stepwisePlan(call, g, inst.opt, plan)
	if err != nil {
		env.check(fmt.Errorf("%s: %w", j.id, err))
	}

	var vr *rapid.VerifyResult
	dVerify, _ := call("verify.Check", func() error { vr = rapid.VerifyPlan(plan); return nil })
	if !vr.OK() {
		env.check(fmt.Errorf("%s: verifier: %v", j.id, vr.Err()))
	}

	var blob []byte
	dEnc, err := call("plan.Encode", func() (err error) { blob, err = rapid.MarshalPlan(plan); return err })
	if err != nil {
		return err
	}
	var back *rapid.Plan
	dDec, err := call("plan.Decode", func() (err error) { back, err = rapid.UnmarshalPlan(blob); return err })
	if err != nil {
		return err
	}
	if back.MinMem() != plan.MinMem() || back.PredictedTime() != plan.PredictedTime() {
		env.check(fmt.Errorf("%s: decoded plan differs from the encoded one", j.id))
	}

	dStruct, err := call("exec.RunStructure", func() error {
		_, err := exec.Run(plan.Schedule, plan.Mem, exec.Config{})
		return err
	})
	if err != nil {
		return err
	}

	var km kernelMeter
	kernel := inst.kernel
	if st != nil {
		kernel = km.wrap(kernel)
	}
	var res *exec.Result
	_, err = call("exec.RunNumeric", func() (err error) {
		res, err = exec.Run(plan.Schedule, plan.Mem, exec.Config{Kernel: kernel, Init: inst.init, BufLen: inst.bufLen})
		return err
	})
	if err != nil {
		return err
	}

	dSim, err := call("machine.Simulate", func() error {
		_, err := rapid.Simulate(inst.prog, plan, rapid.SimOptions{})
		return err
	})
	if err != nil {
		return err
	}

	if env.jnl != nil {
		env.seq++
		for _, r := range []journal.Record{
			{Op: journal.OpSubmit, Seq: env.seq, ID: j.id, Tenant: "default", Priority: "normal", Spec: j.spec},
			{Op: journal.OpAdmit, ID: j.id, Demand: demand(plan)},
			{Op: journal.OpComplete, ID: j.id, Status: "done"},
		} {
			d, err := call("journal.Append", func() error { return env.jnl.Append(r) })
			if err != nil {
				return err
			}
			if st != nil {
				frame, err := journal.EncodeRecord(r)
				if err != nil {
					return err
				}
				st.journalBytes += len(frame)
				st.appendUS = append(st.appendUS, float64(d)/float64(time.Microsecond))
			}
		}
	}

	if err := checkResidual(j.id, inst.residual(res.Perm)); err != nil {
		env.check(err)
	}
	if calls := km.calls.Load(); st != nil && calls != int64(g.NumTasks()) {
		env.check(fmt.Errorf("%s: %d kernel calls for %d tasks", j.id, calls, g.NumTasks()))
	}
	if st == nil {
		return nil
	}

	st.matrixMS = append(st.matrixMS, millis(dMatrix))
	st.taskgraphMS = append(st.taskgraphMS, millis(dBuild))
	st.taskgraphAllocs = append(st.taskgraphAllocs, float64(o1-o0))
	st.tasks = append(st.tasks, float64(g.NumTasks()))
	st.objects = append(st.objects, float64(g.NumObjects()))
	st.fingerprintMS = append(st.fingerprintMS, millis(dFP))
	st.fingerprintBytes = append(st.fingerprintBytes, float64(b1-b0))
	st.scheduleMS = append(st.scheduleMS, millis(dSched))
	st.memPlanMS = append(st.memPlanMS, millis(dMem))
	st.mapsPerProc = append(st.mapsPerProc, plan.AvgMAPs())
	st.verifyMS = append(st.verifyMS, millis(dVerify))
	st.encodeMS = append(st.encodeMS, millis(dEnc))
	st.decodeMS = append(st.decodeMS, millis(dDec))
	st.structMS = append(st.structMS, millis(dStruct))
	st.simulateMS = append(st.simulateMS, millis(dSim))
	var occ proto.Occupancy
	for _, o := range res.Occupancy {
		for i := range occ {
			occ[i] += o[i]
		}
	}
	for i := range occ {
		st.state[i] = append(st.state[i], occ[i])
	}
	st.messages = append(st.messages, float64(res.Messages))
	st.addrPackages = append(st.addrPackages, float64(res.AddrPackages))
	st.suspended = append(st.suspended, float64(sum(res.SuspendedSends)))
	st.blocked = append(st.blocked, float64(sum(res.BlockedAdvances)))
	flops, bytes := 0.0, 0.0
	for t := range g.Tasks {
		flops += g.Tasks[t].Cost
		bytes += taskBytes(g, t, inst.bufLen)
	}
	st.kernelCalls = append(st.kernelCalls, float64(km.calls.Load()))
	st.kernelBusy = append(st.kernelBusy, time.Duration(km.busy.Load()).Seconds())
	st.kernelFlops = append(st.kernelFlops, flops)
	st.kernelBytes = append(st.kernelBytes, bytes)
	return nil
}

// stepwisePlan repeats rapid.Compile one layer call at a time — owner
// assignment and ordering (sched), then the MAP plan (mem) — and checks
// that the result matches the compiled plan's makespan and MIN_MEM. It
// returns the time of the sched calls and of the mem call.
func stepwisePlan(call func(string, func() error) (time.Duration, error), g *graph.DAG, opt rapid.Options, plan *rapid.Plan) (time.Duration, time.Duration, error) {
	p := opt.Procs
	for i := range g.Objects {
		if o := g.Objects[i].Owner; o < 0 || int(o) >= p {
			return 0, 0, fmt.Errorf("object %d has no preset owner", i)
		}
	}
	model := opt.Model
	if model == (rapid.CostModel{}) {
		model = rapid.T3D()
	}
	var assign []graph.Proc
	dAssign, err := call("sched.OwnerComputeAssign", func() (err error) {
		assign, err = sched.OwnerComputeAssign(g, p)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	// The volatile budget slice merging works with, as Compile derives it.
	availVol := int64(1) << 62
	if opt.Memory > 0 {
		perm := make([]int64, p)
		for i := range g.Objects {
			perm[g.Objects[i].Owner] += g.Objects[i].Size
		}
		availVol = opt.Memory - slices.Max(perm)
	}
	var s *sched.Schedule
	dOrder, err := call("sched.ScheduleWith", func() (err error) {
		s, err = sched.ScheduleWith(opt.Heuristic, g, assign, p, model, availVol)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	capacity := opt.Memory
	if capacity <= 0 {
		capacity = s.TOT()
	}
	dMem, err := call("mem.NewPlan", func() error {
		_, err := mem.NewPlan(s, capacity)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if s.Makespan != plan.Schedule.Makespan || s.MinMem() != plan.MinMem() {
		return 0, 0, fmt.Errorf("step-by-step schedule (makespan %g, MIN_MEM %d) differs from Compile's (%g, %d)",
			s.Makespan, s.MinMem(), plan.Schedule.Makespan, plan.MinMem())
	}
	return dAssign + dOrder, dMem, nil
}

// taskBytes is the size of the buffers task t touches, computed from
// object sizes (not measured traffic).
func taskBytes(g *graph.DAG, t int, bufLen func(rapid.ObjID) int64) float64 {
	seen := map[rapid.ObjID]bool{}
	total := int64(0)
	for _, set := range [][]rapid.ObjID{g.Tasks[t].Reads, g.Tasks[t].Writes} {
		for _, o := range set {
			if seen[o] {
				continue
			}
			seen[o] = true
			n := g.Objects[o].Size
			if bufLen != nil {
				n = bufLen(o)
			}
			total += 8 * n
		}
	}
	return float64(total)
}

// demand is the plan's aggregate planned peak, the units rapidd books at
// admission.
func demand(plan *rapid.Plan) int64 {
	var d int64
	for i := range plan.Mem.Procs {
		d += plan.Mem.Procs[i].Peak
	}
	return d
}

func sum[T int | float64](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// layerPass runs every job once with the given recorder and returns the
// wall time of the pass. With journaled set, the pass appends to a fresh
// fsync'd journal under o.out, as the durable daemon does.
func layerPass(o options, jobs []layerJob, rec *recorder, st *layerStats, cache *rapid.PlanCache, journaled bool, check func(error)) (time.Duration, error) {
	env := &layerEnv{rec: rec, cache: cache, stats: st, check: check}
	if journaled {
		dir, err := os.MkdirTemp(o.out, "journal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		jnl, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return 0, err
		}
		defer jnl.Close()
		env.jnl = jnl
	}
	t0 := time.Now()
	for _, j := range jobs {
		if err := runLayers(env, j); err != nil {
			return 0, fmt.Errorf("%s: %w", j.id, err)
		}
	}
	wall := time.Since(t0)
	if env.jnl != nil {
		if err := env.jnl.Close(); err != nil {
			return 0, err
		}
	}
	return wall, nil
}

// report sets every per-layer metric the stats carry.
func (st *layerStats) report(res *result) {
	set := func(name string, xs []float64, unit string) { res.set(name, median(xs), unit, len(xs)) }
	set("inspector.matrix_ms", st.matrixMS, "ms")
	set("inspector.taskgraph_ms", st.taskgraphMS, "ms")
	set("inspector.taskgraph_allocs", st.taskgraphAllocs, "count")
	set("graph.tasks", st.tasks, "count")
	set("graph.objects", st.objects, "count")
	set("sched.schedule_ms", st.scheduleMS, "ms")
	set("mem.plan_ms", st.memPlanMS, "ms")
	set("mem.maps_per_proc", st.mapsPerProc, "count")
	set("verify.check_ms", st.verifyMS, "ms")
	set("plan.fingerprint_ms", st.fingerprintMS, "ms")
	set("plan.fingerprint_alloc_bytes", st.fingerprintBytes, "B")
	set("plan.encode_ms", st.encodeMS, "ms")
	set("plan.decode_ms", st.decodeMS, "ms")
	res.set("plancache.hit_ratio", ratio(float64(st.hits), float64(st.lookups)), "frac", st.lookups)
	set("exec.struct_run_ms", st.structMS, "ms")
	for i, name := range rapid.StateNames() {
		set("proto.state_s."+name, st.state[i], "s")
	}
	set("proto.messages", st.messages, "count")
	set("proto.addr_packages", st.addrPackages, "count")
	set("proto.suspended_sends", st.suspended, "count")
	set("exec.blocked_advances", st.blocked, "count")
	set("machine.simulate_ms", st.simulateMS, "ms")
	set("kernel.calls", st.kernelCalls, "count")
	set("kernel.busy_s", st.kernelBusy, "s")
	set("kernel.flops", st.kernelFlops, "flop")
	set("kernel.bytes_computed", st.kernelBytes, "B")
	flops, busy, bytes := sum(st.kernelFlops), sum(st.kernelBusy), sum(st.kernelBytes)
	res.set("kernel.gflops", ratio(flops, busy)/1e9, "GFLOP/s", len(st.kernelBusy))
	res.set("kernel.flops_per_byte", ratio(flops, bytes), "flop/B", len(st.kernelBytes))
	res.set("journal.append_us_p50", zeroIfNone(median, st.appendUS), "us", len(st.appendUS))
	res.set("journal.append_us_p99", zeroIfNone(func(xs []float64) float64 { return quantile(xs, 0.99) }, st.appendUS), "us", len(st.appendUS))
	res.set("journal.bytes_per_job", ratio(float64(st.journalBytes), float64(len(st.matrixMS))), "B", len(st.matrixMS))
}

// zeroIfNone applies f, or reports 0 for a layer the workload's path does
// not reach.
func zeroIfNone(f func([]float64) float64, xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return f(xs)
}

// writeTrace saves the Chrome trace and the self-time table of a traced
// pass under o.out and prints the table to standard error.
func writeTrace(o options, rec *recorder, res *result) error {
	base := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d", o.workload, o.seed))
	if err := rec.writeChrome(base+".json", envStamp(o, res, 0)); err != nil {
		return err
	}
	f, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	rows := rec.selfTimes()
	writeSelfTimes(f, rows)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "self time by layer (%s.json):\n", base)
	writeSelfTimes(os.Stderr, rows)
	return nil
}
