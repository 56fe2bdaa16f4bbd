package main

import (
	"fmt"
	"math"
	"sort"
)

// Sample-count rules. A floor is the fastest of many samples of the same
// deterministic unit of work, so it needs enough samples for one of them to
// have met a quiet host: 200 for a gated number. The traced run's passes over
// workloads other than the selected one are 40 cycles long; their floors feed
// only ungated per-layer metrics.
const (
	gatedMinSamples = 200
	layerMinSamples = 40
)

// floorOf returns the minimum of samples, refusing fewer than minSamples.
//
// The minimum is the measured choice, not the obvious one. Every unit does
// the same work each cycle, so noise only ever adds time, and on the
// reference host it adds it in level shifts that last minutes: over eight
// runs of one seed the class-summed p05 had a quartile spread of 13.9 / 6.9 /
// 5.1 / 5.7 % (cold_ingest, service_steady, warm_dense, warm_frontier) where
// the class-summed minimum had 7.6 / 5.8 / 3.2 / 3.4 %; p01, p02 and the mean
// of the lowest 5 % all sat between the two. A whole run inside a slow minute
// still reads high; no statistic taken inside the run can know.
func floorOf(samples []float64, minSamples int) (float64, error) {
	if len(samples) < minSamples || len(samples) == 0 {
		return 0, fmt.Errorf("floor needs at least %d samples, got %d", max(minSamples, 1), len(samples))
	}
	floor := samples[0]
	for _, s := range samples[1:] {
		floor = math.Min(floor, s)
	}
	return floor, nil
}

// classSum adds the floors of every class: the cycle's floor time. Work per
// cycle is fixed, so the sum is also the inverse of throughput.
func classSum(perClass [][]float64, minSamples int) (float64, error) {
	sum := 0.0
	for i, samples := range perClass {
		f, err := floorOf(samples, minSamples)
		if err != nil {
			return 0, fmt.Errorf("class %d: %w", i, err)
		}
		sum += f
	}
	return sum, nil
}

// quantile returns the nearest-rank q-quantile of samples (q in (0,1]):
// the smallest value with at least q of the samples at or below it.
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// pctOver returns how far a lies above b, in percent of b.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}
