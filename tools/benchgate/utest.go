package main

import (
	"math"
	"sort"
)

// exactLimit is the largest pooled sample size for which uTest enumerates
// every split of the ranks; C(20,10) = 184,756 splits.
const exactLimit = 20

// uTest returns the two-sided p-value of the Mann–Whitney U test that x and
// y come from the same distribution. Tied values share their mean rank. Up
// to exactLimit pooled samples the p-value is exact, beyond that it is the
// normal approximation.
func uTest(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 1
	}
	if len(x)+len(y) <= exactLimit {
		return exactP(x, y)
	}
	return normalP(x, y)
}

// exactP is the share of all len(x)-subsets of the pooled ranks whose rank
// sum lies at least as far from its mean as x's does.
func exactP(x, y []float64) float64 {
	ranks, _ := midranks(x, y)
	n1, n := len(x), len(ranks)
	mean, dev := rankSumDev(ranks, n1)
	extreme, total := 0, 0
	var walk func(from, left int, sum float64)
	walk = func(from, left int, sum float64) {
		if left == 0 {
			total++
			// Ranks are multiples of 1/2, so sums are exact; the
			// tolerance only absorbs rounding in mean.
			if math.Abs(sum-mean) >= dev-1e-9 {
				extreme++
			}
			return
		}
		for i := from; i <= n-left; i++ {
			walk(i+1, left-1, sum+ranks[i])
		}
	}
	walk(0, n1, 0)
	return float64(extreme) / float64(total)
}

// normalP approximates exactP with a normal distribution of the rank sum,
// with tie and continuity corrections.
func normalP(x, y []float64) float64 {
	ranks, ties := midranks(x, y)
	n1, n2, n := float64(len(x)), float64(len(y)), float64(len(ranks))
	_, dev := rankSumDev(ranks, len(x))
	variance := n1 * n2 / 12 * (n + 1 - ties/(n*(n-1)))
	if variance == 0 {
		return 1
	}
	z := math.Max(dev-0.5, 0) / math.Sqrt(variance)
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// rankSumDev returns the null mean of the rank sum of the first n1 ranks
// and the distance of their observed sum from it.
func rankSumDev(ranks []float64, n1 int) (mean, dev float64) {
	mean = float64(n1) * float64(len(ranks)+1) / 2
	sum := 0.0
	for _, r := range ranks[:n1] {
		sum += r
	}
	return mean, math.Abs(sum - mean)
}

// midranks returns the ranks (1-based, ties averaged) of x's values
// followed by y's within the pooled sample, and Σ(t³−t) over tie groups of
// size t.
func midranks(x, y []float64) ([]float64, float64) {
	pooled := append(append([]float64(nil), x...), y...)
	idx := make([]int, len(pooled))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pooled[idx[a]] < pooled[idx[b]] })
	ranks := make([]float64, len(pooled))
	ties := 0.0
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && pooled[idx[j]] == pooled[idx[i]] {
			j++
		}
		r := float64(i+j+1) / 2 // mean of ranks i+1 … j
		for _, p := range idx[i:j] {
			ranks[p] = r
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	return ranks, ties
}
