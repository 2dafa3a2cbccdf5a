// Command benchgate compares two `go test -bench` outputs, old and new, and
// fails when a benchmark got significantly slower: its median ns/op rose by
// more than 20% and a two-sided Mann–Whitney U test over the samples (one
// per -count run) gives p < 0.05. It uses only the standard library, so a
// CI gate built on it runs offline.
//
//	go run ./tools/benchgate old.txt new.txt
//
// It prints one row per benchmark and exits 1 on a significant slowdown, 2
// on a usage or read error.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	maxSlowdown = 0.20 // largest tolerated rise of the median ns/op
	alpha       = 0.05 // significance level of the U test
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate old.txt new.txt")
		os.Exit(2)
	}
	var sets [2]samples
	for i, path := range os.Args[1:] {
		s, err := parseFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		sets[i] = s
	}
	if !report(os.Stdout, sets[0], sets[1]) {
		os.Exit(1)
	}
}

// samples holds the ns/op of every run of each benchmark, keyed by the
// benchmark's full name (including sub-benchmark and -GOMAXPROCS suffix).
type samples map[string][]float64

func parseFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parse reads benchmark result lines ("BenchmarkX-2  10  123 ns/op ...")
// and ignores every other line.
func parse(r io.Reader) (samples, error) {
	s := samples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		for i := 3; i < len(f); i += 2 {
			if f[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
			}
			s[f[0]] = append(s[f[0]], v)
		}
	}
	return s, sc.Err()
}

// report writes one row per benchmark found in both sets and returns false
// if any got significantly slower by more than maxSlowdown.
func report(w io.Writer, old, cur samples) bool {
	names := make([]string, 0, len(old))
	for name := range old {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tp\tn\tverdict")
	ok := true
	for _, name := range names {
		x, y := old[name], cur[name]
		mx, my := median(x), median(y)
		delta := my/mx - 1
		p := uTest(x, y)
		verdict := "~"
		switch {
		case p >= alpha:
		case delta > maxSlowdown:
			verdict, ok = "REGRESSION", false
		case delta > 0:
			verdict = "slower"
		default:
			verdict = "faster"
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.2f%%\t%.3f\t%d+%d\t%s\n", name, mx, my, 100*delta, p, len(x), len(y), verdict)
	}
	tw.Flush()
	if len(names) == 0 {
		fmt.Fprintln(w, "no benchmark appears in both files")
	}
	return ok
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
