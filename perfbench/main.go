// Command perfbench is the repository's perf ledger: one seeded benchmark
// that runs a workload, checks every result for correctness, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the root of a checkout. Workloads,
// and why each exists, are defined in workloads.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run hands back to main.
type result struct {
	attempted int
	failed    int
	// failures holds the first few failure causes, for the log.
	failures []string
	metrics  map[string]metric
	// samples is the sample count behind each metric (environment stamp).
	samples map[string]int
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// fail counts one failed operation and keeps its cause for the log.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings every workload sees.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out is where temp directories and trace files go; it must lie
	// inside the checkout the benchmark runs from.
	out string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for temp files and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	// The ledger's load shape is fixed at two OS threads, whatever the
	// host has, so figures from different machines compare like for like.
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	start := time.Now()
	res, err := w.run(o)
	if err != nil {
		return err
	}
	if res.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	for _, name := range want {
		m, ok := res.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s measured no %s (failures: %q)", o.workload, name, res.failures)
		}
	}
	stamp := envStamp(o, res, time.Since(start))
	stamp["why"] = w.why
	report(os.Stdout, stamp, res, want)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, pick(res.metrics, want)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = all[n]
	}
	return out
}

// report prints the human-readable part of a result: the environment
// stamp, failures, and every metric the run produced (including ones the
// JSON line leaves out, such as failed_frac) with unit and sample count.
func report(w io.Writer, stamp map[string]any, res *result, want []string) {
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "env %s\n", b)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	inLine := map[string]bool{}
	for _, n := range want {
		inLine[n] = true
	}
	for _, n := range names {
		m := res.metrics[n]
		mark := " "
		if inLine[n] {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-34s %16.6g %-10s n=%d\n", mark, n, m.Value, m.Unit, res.samples[n])
	}
}

// envStamp describes where and how a result was measured.
func envStamp(o options, res *result, wall time.Duration) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     gitCommit("."),
		"wall_s":     wall.Seconds(),
		"samples":    res.samples,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory without running git; a
// checkout that is not a git repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
