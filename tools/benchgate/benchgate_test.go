package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestUTestExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y []float64
		want float64
	}{
		// Complete separation of 6 against 6: 2 of the C(12,6) = 924
		// splits are as extreme.
		{"separated", []float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12}, 2.0 / 924},
		{"identical", []float64{5, 5, 5}, []float64{5, 5, 5}, 1},
		// U = 17 of 20 for 5 against 4: 7 of the C(9,4) = 126 splits
		// reach U ≥ 17, doubled for two sides.
		{"textbook", []float64{19, 22, 16, 29, 24}, []float64{20, 11, 17, 12}, 14.0 / 126},
		// Pooled ranks 1, 2, 3.5, 3.5, 5, 6, 7, 8; x's sum 11.5 lies 6.5
		// below the mean 18. Three subsets sum to ≤ 11.5 and three to
		// ≥ 24.5, of C(8,4) = 70.
		{"tied", []float64{1, 2, 3, 4}, []float64{3, 5, 6, 7}, 6.0 / 70},
	} {
		if got := uTest(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: p = %v, want %v", tc.name, got, tc.want)
		}
		if got := uTest(tc.y, tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s swapped: p = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNormalAgreesWithExact checks the large-sample branch against the
// enumeration on 10 against 10 samples, with and without ties.
func TestNormalAgreesWithExact(t *testing.T) {
	for _, tc := range [][2][]float64{
		{{1, 2, 3, 4, 5, 6, 8, 10, 12, 14}, {7, 9, 11, 13, 15, 16, 17, 18, 19, 20}},
		{{1, 2, 2, 4, 5, 6, 8, 10, 13, 14}, {2, 9, 11, 13, 13, 16, 17, 18, 19, 20}},
		{{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}, {2, 4, 6, 8, 10, 12, 14, 16, 18, 20}},
	} {
		exact, approx := exactP(tc[0], tc[1]), normalP(tc[0], tc[1])
		if math.Abs(approx-exact) > 0.01 {
			t.Errorf("%v vs %v: normal p = %v, exact p = %v; want them within 0.01", tc[0], tc[1], approx, exact)
		}
	}
}

func TestReportGates(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104, 105}
	for _, tc := range []struct {
		name    string
		cur     []float64
		ok      bool
		verdict string
	}{
		{"slower by 50%", []float64{150, 151, 152, 153, 154, 155}, false, "REGRESSION"},
		{"slower by 10%", []float64{110, 111, 112, 113, 114, 115}, true, "slower"},
		{"faster", []float64{50, 51, 52, 53, 54, 55}, true, "faster"},
		{"noise", []float64{90, 160, 95, 150, 100, 140}, true, "~"},
	} {
		old, err := parse(strings.NewReader(benchOutput(base)))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := parse(strings.NewReader(benchOutput(tc.cur)))
		if err != nil {
			t.Fatal(err)
		}
		if got := old["BenchmarkX/p=8-2"]; len(got) != len(base) {
			t.Fatalf("parsed %v from\n%s", old, benchOutput(base))
		}
		var out strings.Builder
		if got := report(&out, old, cur); got != tc.ok || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: report = %v, want %v with verdict %q in\n%s", tc.name, got, tc.ok, tc.verdict, out.String())
		}
	}
}

// benchOutput renders ns as `go test -bench -count` output of one benchmark.
func benchOutput(ns []float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for _, v := range ns {
		fmt.Fprintf(&b, "BenchmarkX/p=8-2 \t      10\t %g ns/op\t 3 allocs/op\n", v)
	}
	b.WriteString("PASS\nok  \trepro\t1.0s\n")
	return b.String()
}
