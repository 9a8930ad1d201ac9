// Package stats provides the small numerical helpers the experiment
// harness uses to turn raw samples into the paper's figures: percentiles,
// CDFs and PDFs.
package stats

import (
	"math"
	"sort"
	"time"
)

// Durations is a mutable sample of durations.
type Durations []time.Duration

// Sorted is an ascending sample: the sort-once view every rank
// statistic reads from. Converting once and querying many times avoids
// the repeated O(n log n) the old per-call sorting paid — the experiment
// harness asks for several percentiles, a CDF and a few thresholds from
// the same sample.
type Sorted []time.Duration

// Sorted returns an ascending copy of the sample.
func (d Durations) Sorted() Sorted {
	out := make(Sorted, len(d))
	copy(out, d)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank. It returns 0 for empty samples.
func (s Sorted) Percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Quantile returns the q-th quantile (q in [0,1]) using the
// floor-index convention idx = ⌊q·n⌋ — the harness's historical rule
// for its five-number summaries (see experiments.pctiles). It differs
// from nearest-rank by at most one rank; both live here so the two
// conventions cannot drift apart in copies.
func (s Sorted) Quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// CDFAt returns the fraction of samples ≤ limit by binary search.
func (s Sorted) CDFAt(limit time.Duration) float64 {
	if len(s) == 0 {
		return 0
	}
	n := sort.Search(len(s), func(i int) bool { return s[i] > limit })
	return float64(n) / float64(len(s))
}

// CDF returns the sample's CDF evaluated at n evenly spaced points up to
// the maximum sample.
func (s Sorted) CDF(points int) []CDFPoint {
	if len(s) == 0 || points <= 0 {
		return nil
	}
	max := s[len(s)-1]
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		x := time.Duration(int64(max) * int64(i) / int64(points))
		idx := sort.Search(len(s), func(j int) bool { return s[j] > x })
		out = append(out, CDFPoint{X: x, Cum: float64(idx) / float64(len(s))})
	}
	return out
}

// Percentile is the one-shot convenience: sort once, query once.
// Callers needing several statistics should hold the Sorted view.
func (d Durations) Percentile(p float64) time.Duration {
	return d.Sorted().Percentile(p)
}

// Mean returns the arithmetic mean.
func (d Durations) Mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// CDFAt returns the fraction of samples ≤ limit with a linear scan (no
// sorted copy); hold a Sorted view to evaluate many thresholds.
func (d Durations) CDFAt(limit time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	n := 0
	for _, v := range d {
		if v <= limit {
			n++
		}
	}
	return float64(n) / float64(len(d))
}

// CDFPoint is one (x, fraction ≤ x) pair.
type CDFPoint struct {
	X   time.Duration
	Cum float64 // in [0,1]
}

// CDF is the one-shot convenience for Sorted.CDF.
func (d Durations) CDF(points int) []CDFPoint {
	return d.Sorted().CDF(points)
}

// IntHistogram counts occurrences of small non-negative integers (e.g.
// route lengths) and reports a PDF.
type IntHistogram struct {
	counts []int
	total  int
}

// Add records one observation.
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		return
	}
	for len(h.counts) <= v {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *IntHistogram) Total() int { return h.total }

// Merge folds o's observations into h. Merging is commutative, so
// per-partition histograms collected by a sharded simulation combine into
// the same aggregate in any order.
func (h *IntHistogram) Merge(o *IntHistogram) {
	for v, c := range o.counts {
		if c == 0 {
			continue
		}
		for len(h.counts) <= v {
			h.counts = append(h.counts, 0)
		}
		h.counts[v] += c
		h.total += c
	}
}

// PDF returns P(X = i) for each i up to the largest observation.
func (h *IntHistogram) PDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Mean returns the sample mean.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0
	for i, c := range h.counts {
		sum += i * c
	}
	return float64(sum) / float64(h.total)
}
