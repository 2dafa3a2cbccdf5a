package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/rapidd"
	"repro/internal/util"
)

// workload is one traffic mix; why is recorded with every result.
type workload struct {
	why string
	run func(o options) (*result, error)
}

// End-to-end metrics, printed by the untraced run (--trace 0) of every
// workload (lower is better unless marked ↑):
//
//	jobs_per_s ↑     completed jobs (serve) or solves (factor-tight) per wall second
//	latency_p50_ms   client latency of a job; on factor-tight, of one solve
//	latency_p99_ms   same, 99th percentile (sample count in the env stamp)
//	solve_s          median matrix-to-factor time: the daemon's inspect+exec
//	                 for a served job, generate→build→compile→execute on
//	                 factor-tight
//	exec_s           median numeric Execute time (measured parallel time)
//	modeled_time_s   rapid.Simulate T3D parallel time of the same plans
//	                 (virtual seconds; on serve, the mean over up to 32
//	                 distinct served structures)
//	peak_mem_units   max over processors of measured Report.PeakUnits (on
//	                 serve, the mean over served jobs)
//	heap_peak_mb     peak Go heap objects during the timed phase
//	setup_s          median of the run's set-ups: server start, cache warm-up
//	                 and problem generation before timing
//
// On the serve workloads, throughput and the medians are medians over 2 s
// windows of the timed phase and p99 is the median of 10 s-window p99s
// (see serve.go).
//
// failed_frac — (failed + shed + refused + transport errors + wrong results)
// / attempted — is printed in the table; the JSON line carries the same
// count as "failed".
var endToEndMetrics = []string{
	"jobs_per_s", "latency_p50_ms", "latency_p99_ms", "solve_s", "exec_s",
	"modeled_time_s", "peak_mem_units", "heap_peak_mb", "setup_s",
}

// Per-layer metrics, printed by the traced run (--trace 1). The arrow after
// each group names the end-to-end metric, and the workload, the layer
// metric should move.
var perLayerMetrics = []string{
	// inspector (sparse, chol, lu, graph) → latency_p50_ms on serve-hot
	// (the daemon rebuilds the graph on every hit), solve_s on
	// factor-tight; little effect on exec_s.
	"inspector.matrix_ms", "inspector.taskgraph_ms", "inspector.taskgraph_allocs",
	"graph.tasks", "graph.objects",
	// planner (sched, mem, verify, plan, plancache). Fingerprint →
	// serve-hot latency_p50_ms. Schedule, MAP plan, verify and codec →
	// serve-cold jobs_per_s and factor-tight solve_s, no effect on
	// serve-hot. maps_per_proc trades peak_mem_units against
	// modeled_time_s. hit_ratio checks the workload design: ≈1 on
	// serve-hot, ≈0 on serve-cold.
	"sched.schedule_ms", "mem.plan_ms", "mem.maps_per_proc", "verify.check_ms",
	"plan.fingerprint_ms", "plan.fingerprint_alloc_bytes", "plan.encode_ms",
	"plan.decode_ms", "plancache.hit_ratio",
	// engine (proto, exec, rma, machine) → exec_s on factor-tight (MAP and
	// REC waiting), latency_p50_ms on serve-hot (wake path on tiny tasks).
	"exec.struct_run_ms", "proto.state_s.REC", "proto.state_s.EXE", "proto.state_s.SND",
	"proto.state_s.MAP", "proto.state_s.END", "proto.messages", "proto.addr_packages",
	"proto.suspended_sends", "exec.blocked_advances", "machine.simulate_ms",
	// kernels (blas through the chol/lu Kernel) → exec_s and solve_s on
	// factor-tight; small effect on serve-*. Bytes are computed from
	// buffer sizes, not measured.
	"kernel.calls", "kernel.busy_s", "kernel.flops", "kernel.gflops",
	"kernel.bytes_computed", "kernel.flops_per_byte",
	// serving (rapidd, journal). rapidd.* → latency_p50_ms on serve-hot;
	// journal.* → latency_p50_ms and jobs_per_s on serve-cold, no effect on
	// serve-hot, which has no journal. unattributed = client latency −
	// inspect − exec: buildProblem, HTTP and queueing.
	"rapidd.inspect_ms_p50", "rapidd.exec_ms_p50", "rapidd.unattributed_ms_p50",
	"rapidd.coalesced_frac", "rapidd.verify_cached_frac",
	"journal.append_us_p50", "journal.append_us_p99", "journal.bytes_per_job",
	// traced run against untraced run of the same calls.
	"trace.overhead_frac",
}

var workloads = map[string]*workload{
	// serve-hot: 2 closed-loop clients, each waiting on POST
	// /v1/solve?wait=1, against an in-process rapidd with 2 workers, no
	// journal and no disk cache. Cholesky n=120, block 8, p=4, MPO over
	// 64 distinct structures picked uniformly; set-up warms all 64 plans, so
	// every timed request is a memory-tier plan hit; 1 request in 16 sets
	// verify:true.
	//
	// Why: this is the hit path. It is mostly inspector regeneration
	// (the daemon's buildProblem) plus plan.Fingerprint and a small
	// execute, so "cache hits skip the inspector" moves it, while compile,
	// kernels and the journal do little here.
	"serve-hot": {
		why: "plan-cache hit path: every timed request is a memory-tier hit, so inspector rebuild and fingerprinting dominate",
		run: func(o options) (*result, error) { return runServe(o, hotWorkload) },
	},
	// serve-cold: the same closed loop against a durable daemon (journal
	// with fsync, disk plan cache, both in temp dirs on local disk). Every
	// request is a never-seen structure, alternating Cholesky and LU at
	// n=300, p=4, MPO; 1 in 16 sets verify:true.
	//
	// Why: every job misses the plan cache, so time goes to the inspector
	// (including lu's static symbolic factorization), the scheduler, MAP
	// planning, the verifier, codec writes to disk and journal fsyncs. A
	// hit-path optimisation must show no change here and must not slow
	// the miss path.
	"serve-cold": {
		why: "plan-cache miss path on a durable daemon: inspector, scheduler, MAP plan, verifier, disk codec and journal fsync on every job",
		run: func(o options) (*result, error) { return runServe(o, coldWorkload) },
	},
	// factor-tight: the library path, no daemon. Each rep builds
	// sparse.BCSSTK15Like() (n=3948), RCM-orders it, gives it seeded SPD
	// values, runs chol.Build (w=32, p=4), rapid.Compile with DTSMerge
	// under a pinned per-processor capacity of 1,280,000 units, and a
	// numeric rapid.Execute. p=4 virtual processors share GOMAXPROCS=2, so
	// no wall-clock scaling is reported.
	//
	// Why: kernels dominate (numeric execute is ~25× the structure-only
	// run), and at ~30% of TOT (4,265,984 units) the plan needs ~12.75
	// MAPs per processor, so MAP recycling and suspended sends are active,
	// which serve-hot at TOT lacks. This is the paper's time/space setting
	// at the scale of the paper's matrix. The capacity is absolute so a
	// scheduler change cannot move its own budget.
	"factor-tight": {
		why: "paper-scale BCSSTK15 Cholesky at a pinned 30%-of-TOT budget: kernels, MAP recycling and suspended sends dominate",
		run: runFactor,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Seeds of generated structures. serve-hot keys have the top bit set and
// serve-cold seeds have it clear, so the two workloads never share a
// structure; seed 0 is avoided because rapidd maps it to 1.
const hotBit = 1 << 63

// Stream tags keep the generators' random streams independent.
const (
	tagHotKeys uint64 = iota + 1
	tagHotPick
	tagVerify
	tagCold
	tagFactor
	tagCheck
)

// serveWorkload describes the request stream of one serve workload.
type serveWorkload struct {
	name string
	// durable runs the daemon with an fsync'd journal and a disk cache.
	durable bool
	// planSource is the plan_source every timed job must report.
	planSource string
	// warmups draws the requests set-up sends before timing.
	warmups func(g specStream) []spec
	// replay caps how many distinct structures of the run, in stream
	// order, the traced run replays layer by layer.
	replay int
	newGen func(seed uint64) specStream
}

// spec is one generated request: its position in the stream and the
// JSON body sent to the daemon.
type spec struct {
	index int
	job   rapidd.JobSpec
	body  []byte
}

// specStream yields the request stream; safe for concurrent clients.
type specStream interface {
	next() spec
}

func newSpec(i int, js rapidd.JobSpec) spec {
	b, err := json.Marshal(js)
	if err != nil {
		panic(err) // a struct of scalars always marshals
	}
	return spec{index: i, job: js, body: b}
}

const (
	hotKeys   = 64
	hotN      = 120
	coldN     = 300
	serveP    = 4
	serveW    = 8
	verifyOne = 16 // one request in verifyOne sets verify:true
)

var hotWorkload = serveWorkload{
	name:       "serve-hot",
	planSource: "memory",
	replay:     hotKeys,
	newGen:     func(seed uint64) specStream { return newHotGen(seed) },
	warmups: func(g specStream) []spec {
		hg := g.(*hotGen)
		out := make([]spec, len(hg.keys))
		for i, k := range hg.keys {
			out[i] = newSpec(-1, hotSpec(k, false))
		}
		return out
	},
}

var coldWorkload = serveWorkload{
	name:       "serve-cold",
	durable:    true,
	planSource: "compiled",
	// The ~3000 structures of a run would take longer to replay than the
	// run itself.
	replay: 24,
	newGen: func(seed uint64) specStream { return newColdGen(seed) },
	// Eight never-seen jobs (four of each kind) fault in the code paths
	// and the HTTP connections before timing; the stream never repeats
	// them.
	warmups: func(g specStream) []spec {
		out := make([]spec, 8)
		for i := range out {
			out[i] = g.next()
		}
		return out
	},
}

func hotSpec(key uint64, verify bool) rapidd.JobSpec {
	return rapidd.JobSpec{Kind: "chol", N: hotN, Seed: key, Procs: serveP, Block: serveW, Heuristic: "mpo", Verify: verify}
}

// hotGen draws serve-hot requests: uniform over 64 keys, verify on one
// seed-chosen position in every 16.
type hotGen struct {
	mu     sync.Mutex
	keys   []uint64
	pick   *util.RNG
	verify int
	i      int
}

func newHotGen(seed uint64) *hotGen {
	g := &hotGen{pick: util.NewRNG(util.Hash64(seed, tagHotPick))}
	seen := map[uint64]bool{}
	for c := uint64(0); len(g.keys) < hotKeys; c++ {
		k := util.Hash64(seed, tagHotKeys, c) | hotBit
		if !seen[k] {
			seen[k] = true
			g.keys = append(g.keys, k)
		}
	}
	g.verify = util.NewRNG(util.Hash64(seed, tagVerify)).Intn(verifyOne)
	return g
}

func (g *hotGen) next() spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.i
	g.i++
	return newSpec(i, hotSpec(g.keys[g.pick.Intn(len(g.keys))], i%verifyOne == g.verify))
}

// coldGen draws serve-cold requests: a fresh structure seed every time,
// alternating Cholesky and LU.
type coldGen struct {
	mu     sync.Mutex
	seed   uint64
	seen   map[uint64]bool
	c      uint64
	verify int
	i      int
}

func newColdGen(seed uint64) *coldGen {
	return &coldGen{
		seed:   seed,
		seen:   map[uint64]bool{},
		verify: util.NewRNG(util.Hash64(seed, tagVerify)).Intn(2 * verifyOne),
	}
}

func (g *coldGen) next() spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	var s uint64
	for {
		s = util.Hash64(g.seed, tagCold, g.c) &^ hotBit
		g.c++
		if s != 0 && !g.seen[s] {
			break
		}
	}
	g.seen[s] = true
	i := g.i
	g.i++
	kind := "chol"
	if i%2 == 1 {
		kind = "lu"
	}
	// Kinds alternate, so the verified positions — two in every 32, an odd
	// distance apart — alternate kinds too.
	v := i % (2 * verifyOne)
	return newSpec(i, rapidd.JobSpec{
		Kind: kind, N: coldN, Seed: s, Procs: serveP, Block: serveW,
		Heuristic: "mpo", Verify: v == g.verify || v == (g.verify+verifyOne+1)%(2*verifyOne),
	})
}

// jobKey names a generated structure for logs and span job IDs.
func jobKey(js rapidd.JobSpec) string { return fmt.Sprintf("%s-n%d-s%x", js.Kind, js.N, js.Seed) }
