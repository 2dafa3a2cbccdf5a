package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/rapidd"
	"repro/internal/sparse"
	"repro/rapid"
)

// daemonJob is one timed job as the daemon recorded it, with the latency
// its client saw.
type daemonJob struct {
	rec rapidd.Job
	lat float64 // ms
}

// setDaemonMetrics sets the rapidd.* metrics from the job records of the
// untraced phase (none on the library path, where they read 0).
func setDaemonMetrics(res *result, jobs []daemonJob, coalesced, verifyCached float64) {
	var inspect, execMS, unattr []float64
	for _, j := range jobs {
		inspect = append(inspect, j.rec.InspectMS)
		execMS = append(execMS, j.rec.ExecMS)
		unattr = append(unattr, j.lat-j.rec.InspectMS-j.rec.ExecMS)
	}
	n := len(jobs)
	res.set("rapidd.inspect_ms_p50", zeroIfNone(median, inspect), "ms", n)
	res.set("rapidd.exec_ms_p50", zeroIfNone(median, execMS), "ms", n)
	res.set("rapidd.unattributed_ms_p50", zeroIfNone(median, unattr), "ms", n)
	res.set("rapidd.coalesced_frac", coalesced, "frac", n)
	res.set("rapidd.verify_cached_frac", verifyCached, "frac", n)
}

// serveLayers is the per-layer part of a traced serve run. It reads the
// job records and /v1/stats counters of the untraced phase, then replays
// the run's distinct specs through the public calls rapidd makes, in
// alternating untraced and traced passes, to time each layer and the
// tracing overhead.
func serveLayers(o options, w serveWorkload, d *daemon, samples []sample, before, after map[string]int64, res *result) error {
	var records []rapidd.Job
	if err := d.get("/v1/jobs", &records); err != nil {
		return err
	}
	byID := make(map[string]rapidd.Job, len(records))
	for _, j := range records {
		byID[j.ID] = j
	}
	var timed []daemonJob
	coalesced := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		j, ok := byID[s.job.ID]
		if !ok {
			res.fail("job %s missing from /v1/jobs", s.job.ID)
			continue
		}
		timed = append(timed, daemonJob{rec: j, lat: millis(s.lat)})
		if j.Coalesced {
			coalesced++
		}
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	setDaemonMetrics(res, timed, ratio(float64(coalesced), float64(len(timed))),
		ratio(delta("rapidd.verify.cached"), delta("rapidd.verify.cached")+delta("rapidd.verify.passed")))

	var jobs []layerJob
	seen := map[uint64]bool{}
	for _, s := range ordered(samples) {
		js := s.spec.job
		if s.err != nil || seen[js.Seed] || len(jobs) >= w.replay {
			continue
		}
		seen[js.Seed] = true
		jobs = append(jobs, layerJob{
			id:       s.job.ID,
			kind:     js.Kind,
			matrix:   func() *sparse.Matrix { return specMatrix(js) },
			build:    func(a *sparse.Matrix) (*instance, error) { return specInstance(js, a, js.Seed) },
			spec:     s.spec.body,
			daemonFP: s.job.Fingerprint,
		})
	}

	// The replay's plan cache is set up like the daemon's: in memory and
	// warm on serve-hot, on a fresh disk directory per pass on serve-cold.
	var cacheFor func() (*rapid.PlanCache, func(), error)
	if w.durable {
		cacheFor = func() (*rapid.PlanCache, func(), error) {
			dir, err := os.MkdirTemp(o.out, "cache-")
			if err != nil {
				return nil, nil, err
			}
			return rapid.NewPlanCache(rapid.PlanCacheConfig{Dir: dir}), func() { os.RemoveAll(dir) }, nil
		}
	} else {
		hot := rapid.NewPlanCache(rapid.PlanCacheConfig{})
		for _, j := range jobs {
			inst, err := j.build(j.matrix())
			if err != nil {
				return err
			}
			if _, _, err := rapid.CompileCached(inst.prog, inst.opt, hot); err != nil {
				return err
			}
		}
		cacheFor = func() (*rapid.PlanCache, func(), error) { return hot, func() {}, nil }
	}
	if err := alternatePasses(o, jobs, cacheFor, true, serveTracePairs, 0, res); err != nil {
		return err
	}
	// The hit ratio is the daemon's own over the timed phase; the replay's
	// cache only mirrors it.
	hits := delta("plancache.hit.mem") + delta("plancache.hit.disk")
	lookups := hits + delta("plancache.miss")
	res.set("plancache.hit_ratio", ratio(hits, lookups), "frac", int(lookups))
	return nil
}

// serveTracePairs is how many untraced/traced pass pairs a serve run's
// replay makes.
const serveTracePairs = 5

// alternatePasses runs untraced and traced passes over the jobs in turn —
// at least minPairs pairs, and until minDur has passed — then reports the
// per-layer metrics of the traced passes, trace.overhead_frac (median
// traced pass against median untraced pass), and writes the trace files.
// cacheFor gives each pass its plan cache (nil: plain Compile) and a
// clean-up function.
func alternatePasses(o options, jobs []layerJob, cacheFor func() (*rapid.PlanCache, func(), error), journaled bool, minPairs int, minDur time.Duration, res *result) error {
	if len(jobs) == 0 {
		return fmt.Errorf("no job to replay")
	}
	check := func(err error) { res.fail("%v", err) }
	rec, st := newRecorder(true), &layerStats{}
	var walls [2][]float64
	start := time.Now()
	for len(walls[1]) < minPairs || time.Since(start) < minDur {
		for i, traced := range []bool{false, true} {
			var cache *rapid.PlanCache
			done := func() {}
			if cacheFor != nil {
				var err error
				if cache, done, err = cacheFor(); err != nil {
					return err
				}
			}
			r, s := newRecorder(false), (*layerStats)(nil)
			if traced {
				r, s = rec, st
			}
			runtime.GC()
			wall, err := layerPass(o, jobs, r, s, cache, journaled, check)
			done()
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], wall.Seconds())
			res.attempted += len(jobs)
		}
	}
	st.report(res)
	res.set("trace.overhead_frac", median(walls[1])/median(walls[0])-1, "frac", len(walls[1]))
	return writeTrace(o, rec, res)
}
