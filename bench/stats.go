package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of an unsorted sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver computes spreads
// with; -compare must agree with it. Needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure bounds are judged against. 0 with fewer than
// two samples or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// slice is one equal share of a measurement window: the simulated time
// it covered, the wall time it took and the operations that completed.
type slice struct {
	sim  time.Duration
	wall time.Duration
	ops  int64
}

// medianRates reduces a window to its rates. sim_speed is the median
// slice's simulated seconds per wall second: the median slice is robust
// to one noisy neighbour where the window total is not. Every workload
// offers its operations on the virtual clock (open loop), so operations
// per simulated second are a property of the workload, not of the
// machine; ops_per_s is that ratio carried at the median slice's speed.
// Per-slice operation counts are too lumpy to take a median of — a
// platform_jobs slice completes a couple of dozen jobs.
func medianRates(slices []slice) (simSpeed, opsPerS float64) {
	speeds := make([]float64, 0, len(slices))
	var ops int64
	var sim time.Duration
	for _, s := range slices {
		if w := s.wall.Seconds(); w > 0 {
			speeds = append(speeds, s.sim.Seconds()/w)
		}
		ops += s.ops
		sim += s.sim
	}
	simSpeed = median(speeds)
	if sim > 0 {
		opsPerS = float64(ops) / sim.Seconds() * simSpeed
	}
	return simSpeed, opsPerS
}

// digest hashes the simulated outcome of a run — counts that depend only
// on (workload, seed, size), never on wall time — so that two runs can
// be compared for schedule equality with one string.
func digest(fields ...any) string {
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%v|", f)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// durationsMS converts virtual durations to an ascending millisecond
// sample.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
