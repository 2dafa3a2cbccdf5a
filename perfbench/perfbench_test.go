package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/chol"
	"repro/internal/lu"
	"repro/internal/rapidd"
	"repro/rapid"
)

func TestSpecStreamIsDeterministic(t *testing.T) {
	for _, w := range []serveWorkload{hotWorkload, coldWorkload} {
		a, b, c := w.newGen(7), w.newGen(7), w.newGen(8)
		differs := false
		for i := 0; i < 2000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if !bytes.Equal(x.body, y.body) {
				t.Fatalf("%s: spec %d differs for equal seeds:\n%s\n%s", w.name, i, x.body, y.body)
			}
			differs = differs || !bytes.Equal(x.body, z.body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestGeneratedSeedsNeverCollide(t *testing.T) {
	hot := newHotGen(3)
	hotKeys := map[uint64]bool{}
	for _, k := range hot.keys {
		if k&hotBit == 0 || hotKeys[k] {
			t.Fatalf("hot key %x repeats or lacks the hot bit", k)
		}
		hotKeys[k] = true
	}
	if len(hotKeys) != 64 {
		t.Fatalf("%d hot keys, want 64", len(hotKeys))
	}
	verify := 0
	for i := 0; i < 1600; i++ {
		sp := hot.next()
		if !hotKeys[sp.job.Seed] {
			t.Fatalf("hot request %d uses unknown key %x", i, sp.job.Seed)
		}
		if sp.job.Verify {
			verify++
		}
	}
	if verify != 100 {
		t.Errorf("%d of 1600 hot requests verify, want 100", verify)
	}
	for _, seed := range []uint64{1, 3} {
		cold := newColdGen(seed)
		seen := map[uint64]bool{}
		verified := map[string]int{}
		for i := 0; i < 3200; i++ {
			sp := cold.next()
			if sp.job.Verify {
				verified[sp.job.Kind]++
			}
			s := sp.job.Seed
			if s == 0 || seen[s] || hotKeys[s] || s&hotBit != 0 {
				t.Fatalf("cold seed %d (%x) collides with a cold or hot seed", i, s)
			}
			seen[s] = true
			if want := []string{"chol", "lu"}[i%2]; sp.job.Kind != want {
				t.Fatalf("cold request %d is %s, want %s", i, sp.job.Kind, want)
			}
		}
		if verified["chol"] != 100 || verified["lu"] != 100 {
			t.Errorf("seed %d: verified %v of 3200 cold requests, want 100 of each kind", seed, verified)
		}
	}
}

func TestHotTimedRequestsHitMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	o := options{workload: "serve-hot", seed: 5, seconds: 1, out: t.TempDir()}
	g := hotWorkload.newGen(o.seed)
	d, setups, err := setUpServe(o, hotWorkload, g)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	if len(setups) != setupReps {
		t.Errorf("%d set-ups timed, want %d", len(setups), setupReps)
	}
	samples := closedLoop(d, g, 500*time.Millisecond)
	if len(samples) == 0 {
		t.Fatal("no timed request")
	}
	for _, s := range samples {
		if s.err != nil || s.job.Status != rapidd.StatusDone || s.job.PlanSource != "memory" {
			t.Fatalf("request %d: err %v, status %s, plan_source %q; want done from memory",
				s.spec.index, s.err, s.job.Status, s.job.PlanSource)
		}
	}
}

// The residual checks must pass a correct factor and catch a damaged one.
func TestResidualChecks(t *testing.T) {
	for _, kind := range []string{"chol", "lu"} {
		js := rapidd.JobSpec{Kind: kind, N: 120, Seed: 9, Procs: 4, Block: 8, Heuristic: "mpo"}
		a := specMatrix(js)
		inst, err := specInstance(js, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		var objs map[rapid.ObjID][]float64
		if kind == "chol" {
			pr, err := chol.Build(a, chol.Options{Procs: 4, BlockSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			objs, err = pr.SequentialFactor()
			if err != nil {
				t.Fatal(err)
			}
		} else {
			pr, err := lu.Build(a, lu.Options{Procs: 4, BlockSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			objs, err = pr.SequentialFactor()
			if err != nil {
				t.Fatal(err)
			}
		}
		if r := inst.residual(objs); !(r < 1e-12) {
			t.Errorf("%s: residual %g of a correct factor", kind, r)
		}
		for _, buf := range objs {
			buf[0] += 1e-3
		}
		if r := inst.residual(objs); !(r > 1e-8) || math.IsNaN(r) {
			t.Errorf("%s: residual %g of a damaged factor", kind, r)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{on: true, spans: []span{
		{name: "job.total", id: 1, start: 0, end: 100 * ms},
		{name: "chol.Build", id: 2, parent: 1, start: 10 * ms, end: 40 * ms},
		{name: "plan.Encode", id: 3, parent: 1, start: 30 * ms, end: 50 * ms}, // overlaps its sibling
		{name: "plan.Decode", id: 4, parent: 3, start: 35 * ms, end: 45 * ms},
	}}
	want := map[string]time.Duration{"job": 60 * ms, "chol": 30 * ms, "plan": 20 * ms}
	for _, lt := range r.selfTimes() {
		if lt.self != want[lt.layer] {
			t.Errorf("layer %s: self %v, want %v", lt.layer, lt.self, want[lt.layer])
		}
	}
}

// A served LU job's reported forward error must match the in-process
// re-execution exactly, and a wrong value must be caught.
func TestCheckLUJobMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	d, err := startDaemon(options{out: t.TempDir()}, coldWorkload)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	js := rapidd.JobSpec{Kind: "lu", N: coldN, Seed: 77, Procs: serveP, Block: serveW, Heuristic: "mpo", Verify: true}
	job, err := d.solve(newSpec(0, js).body)
	if err != nil || job.Status != rapidd.StatusDone {
		t.Fatalf("solve: %v, status %s %s", err, job.Status, job.Error)
	}
	if err := checkLUJob(js, job.Residual); err != nil {
		t.Error(err)
	}
	if err := checkLUJob(js, job.Residual*2); err == nil {
		t.Error("a wrong forward error passed")
	}
}
