package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified; NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak bytes of live and not-yet-swept heap objects
// while it runs. runtime/metrics is read without stopping the world, so a
// 2 ms period costs the measured work next to nothing.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := readHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}
