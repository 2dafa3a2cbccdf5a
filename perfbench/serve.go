package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/rapidd"
	"repro/rapid"
)

// Load shape of the serve workloads: a closed loop of serveClients callers,
// each waiting for its reply before sending the next request, against a
// daemon with serveWorkers workers. Nothing is sized to shed.
const (
	serveClients = 2
	serveWorkers = 2
	// serveCacheBytes bounds the daemon's in-memory plan tier (by encoded
	// size). serve-hot's 64 plans fit with room to spare (every timed
	// request is checked to be a memory hit); on serve-cold, where nothing
	// is hit, the tier fills early in the run, so heap_peak_mb reads a
	// steady state instead of growing with the jobs served. The decoded
	// plans it holds take about 14× their encoded size.
	serveCacheBytes = 4 << 20
	// Throughput and medians are taken per serveWindow of the timed phase,
	// p99 per p99Window (about a thousand serve-cold replies), and then
	// medianed across windows, so a few seconds of interference from
	// outside the process move them little.
	serveWindow = 2 * time.Second
	p99Window   = 10 * time.Second
	// setupReps set-ups are timed per run; setup_s is their median and the
	// last one serves the timed phase.
	setupReps = 5
)

// daemon is an in-process rapidd behind a loopback HTTP listener.
type daemon struct {
	srv    *rapidd.Server
	hs     *http.Server
	url    string
	dirs   []string
	served chan error
	hc     *http.Client
}

func startDaemon(o options, w serveWorkload) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	cfg := rapidd.Config{Workers: serveWorkers, CacheMemBudget: serveCacheBytes}
	if w.durable {
		for _, p := range []*string{&cfg.JournalDir, &cfg.CacheDir} {
			dir, err := os.MkdirTemp(o.out, w.name+"-")
			if err != nil {
				d.close()
				return nil, err
			}
			d.dirs = append(d.dirs, dir)
			*p = dir
		}
	}
	srv, err := rapidd.Open(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.hc = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1, DisableCompression: true},
	}
	return d, nil
}

// close stops the HTTP server and the daemon, waits for both, and removes
// the daemon's directories.
func (d *daemon) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		d.hc.CloseIdleConnections()
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Drain(ctx))
	}
	for _, dir := range d.dirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	return errors.Join(errs...)
}

// solve posts one spec with ?wait=1 and decodes the terminal job.
func (d *daemon) solve(body []byte) (rapidd.Job, error) {
	var job rapidd.Job
	resp, err := d.hc.Post(d.url+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return job, err
	}
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return job, json.Unmarshal(b, &job)
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.hc.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats is the part of /v1/stats the benchmark reads.
type stats struct {
	Counters map[string]int64 `json:"counters"`
}

func (d *daemon) counters() (map[string]int64, error) {
	var st stats
	err := d.get("/v1/stats", &st)
	return st.Counters, err
}

// sample is one timed request.
type sample struct {
	spec spec
	job  rapidd.Job
	lat  time.Duration
	// end is when the reply arrived, from the start of the timed phase.
	end time.Duration
	err error
}

// closedLoop runs serveClients callers over the stream until the
// deadline and returns every request they made.
func closedLoop(d *daemon, g specStream, dur time.Duration) []sample {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	wg.Add(serveClients)
	for c := 0; c < serveClients; c++ {
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				sp := g.next()
				t0 := time.Now()
				job, err := d.solve(sp.body)
				now := time.Now()
				mine = append(mine, sample{spec: sp, job: job, lat: now.Sub(t0), end: now.Sub(start), err: err})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// warm serves the set-up requests with serveClients callers and checks
// each reply.
func warm(d *daemon, specs []spec) error {
	next := make(chan spec)
	errs := make(chan error, serveClients)
	for c := 0; c < serveClients; c++ {
		go func() {
			var first error
			for sp := range next {
				job, err := d.solve(sp.body)
				if err == nil && job.Status != rapidd.StatusDone {
					err = fmt.Errorf("status %s: %s", job.Status, job.Error)
				}
				if err != nil && first == nil {
					first = fmt.Errorf("warm-up %s: %w", jobKey(sp.job), err)
				}
			}
			errs <- first
		}()
	}
	for _, sp := range specs {
		next <- sp
	}
	close(next)
	var all []error
	for c := 0; c < serveClients; c++ {
		all = append(all, <-errs)
	}
	return errors.Join(all...)
}

// setUpServe times setupReps set-ups (daemon start and warm-up) and keeps
// the daemon of the last one running.
func setUpServe(o options, w serveWorkload, g specStream) (*daemon, []float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(o, w)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(d, w.warmups(g)); err != nil {
			d.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

func runServe(o options, w serveWorkload) (*result, error) {
	g := w.newGen(o.seed)
	d, setups, err := setUpServe(o, w, g)
	if err != nil {
		return nil, err
	}
	res, err := serveTimed(o, w, d, g, setups)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return res, err
}

// serveTimed runs the timed closed loop, checks every reply, and computes
// the end-to-end metrics; with --trace 1 it goes on to the per-layer pass.
func serveTimed(o options, w serveWorkload, d *daemon, g specStream, setups []float64) (*result, error) {
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler()
	dur := time.Duration(o.seconds * float64(time.Second))
	samples := closedLoop(d, g, dur)
	heapMB := heap.finish()
	after, err := d.counters()
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.attempted = len(samples)
	fps := map[uint64]string{}
	var peak, luForward []float64
	winLen, tailLen := min(serveWindow, dur), min(p99Window, dur)
	wins := make([]struct{ lat, solve, exec []float64 }, dur/winLen)
	tails := make([][]float64, dur/tailLen)
	for _, s := range samples {
		key := jobKey(s.spec.job)
		switch {
		case s.err != nil: // transport errors, and shed or refused requests (non-200)
			res.fail("%s: %v", key, s.err)
			continue
		case s.job.Status != rapidd.StatusDone:
			res.fail("%s: status %s: %s", key, s.job.Status, s.job.Error)
			continue
		case s.job.Spec.Seed != s.spec.job.Seed || s.job.Spec.Kind != s.spec.job.Kind:
			res.fail("%s: reply is for another spec", key)
			continue
		case s.job.PlanSource != w.planSource:
			res.fail("%s: plan_source %q, want %q", key, s.job.PlanSource, w.planSource)
			continue
		case s.spec.job.Verify && s.spec.job.Kind == "chol" && !(s.job.Residual <= residualLimit):
			res.fail("%s: residual %.3g exceeds %.0e", key, s.job.Residual, residualLimit)
			continue
		case s.spec.job.Verify && s.spec.job.Kind == "lu":
			luForward = append(luForward, s.job.Residual)
			if err := checkLUJob(s.spec.job, s.job.Residual); err != nil {
				res.fail("%s: %v", key, err)
				continue
			}
		}
		// A hot key keeps one fingerprint; a cold structure is never seen
		// twice.
		if fp, seen := fps[s.spec.job.Seed]; seen && (fp != s.job.Fingerprint || w.planSource == "compiled") {
			res.fail("%s: fingerprint %s repeats or changed (was %s)", key, s.job.Fingerprint, fp)
			continue
		}
		fps[s.spec.job.Seed] = s.job.Fingerprint
		peak = append(peak, float64(s.job.PeakUnits))
		if i := int(s.end / winLen); i < len(wins) {
			w := &wins[i]
			w.lat = append(w.lat, millis(s.lat))
			w.solve = append(w.solve, (s.job.InspectMS+s.job.ExecMS)/1000)
			w.exec = append(w.exec, s.job.ExecMS/1000)
		}
		if i := int(s.end / tailLen); i < len(tails) {
			tails[i] = append(tails[i], millis(s.lat))
		}
	}
	var rate, latW, solveW, execW, p99W []float64
	for _, t := range tails {
		if len(t) > 0 {
			p99W = append(p99W, quantile(t, 0.99))
		}
	}
	for _, w := range wins {
		if len(w.lat) == 0 {
			continue
		}
		rate = append(rate, float64(len(w.lat))/winLen.Seconds())
		latW = append(latW, median(w.lat))
		solveW = append(solveW, median(w.solve))
		execW = append(execW, median(w.exec))
	}
	modeled, err := modeledTimes(samples)
	if err != nil {
		res.fail("modeled time: %v", err)
	}
	res.set("jobs_per_s", median(rate), "1/s", len(peak))
	res.set("latency_p50_ms", median(latW), "ms", len(peak))
	res.set("latency_p99_ms", median(p99W), "ms", len(peak))
	res.set("solve_s", median(solveW), "s", len(peak))
	res.set("exec_s", median(execW), "s", len(peak))
	res.set("modeled_time_s", mean(modeled), "virtual_s", len(modeled))
	res.set("peak_mem_units", mean(peak), "units", len(peak))
	res.set("heap_peak_mb", heapMB, "MiB", 1)
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("failed_frac", float64(res.failed)/float64(res.attempted), "frac", res.attempted)
	if len(luForward) > 0 {
		res.set("rapidd.lu_forward_error_max", slices.Max(luForward), "abs", len(luForward))
	}
	if !o.trace {
		return res, nil
	}
	return res, serveLayers(o, w, d, samples, before, after, res)
}

// modeledSample caps how many distinct served structures are compiled
// and simulated for modeled_time_s; serve-hot has only 64.
const modeledSample = 32

// modeledTimes compiles the first distinct structures served (in stream
// order) with the library, checks that each fingerprints equal to the
// daemon's job, and returns their simulated T3D parallel times.
func modeledTimes(samples []sample) ([]float64, error) {
	seen := map[uint64]bool{}
	var out []float64
	for _, s := range ordered(samples) {
		if s.err != nil || seen[s.spec.job.Seed] || len(out) >= modeledSample {
			continue
		}
		seen[s.spec.job.Seed] = true
		inst, err := specInstance(s.spec.job, specMatrix(s.spec.job), 0)
		if err != nil {
			return out, err
		}
		if fp := rapid.Fingerprint(inst.prog, inst.opt); fp != s.job.Fingerprint {
			return out, fmt.Errorf("%s: library fingerprint %s differs from the daemon's %s", jobKey(s.spec.job), fp, s.job.Fingerprint)
		}
		plan, err := rapid.Compile(inst.prog, inst.opt)
		if err != nil {
			return out, err
		}
		sim, err := rapid.Simulate(inst.prog, plan, rapid.SimOptions{})
		if err != nil {
			return out, err
		}
		out = append(out, sim.ParallelTime)
	}
	if len(out) == 0 {
		return nil, errors.New("no structure served")
	}
	return out, nil
}

// ordered returns the samples in stream order.
func ordered(samples []sample) []sample {
	out := append([]sample(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i].spec.index < out[j].spec.index })
	return out
}
