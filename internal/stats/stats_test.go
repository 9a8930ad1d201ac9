package stats

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %s, want %s", c.p, got, c.want)
		}
	}
	if (Durations{}).Percentile(50) != 0 {
		t.Error("empty percentile not zero")
	}
}

func TestMeanAndCDFAt(t *testing.T) {
	d := Durations{time.Second, 3 * time.Second}
	if d.Mean() != 2*time.Second {
		t.Errorf("mean = %s", d.Mean())
	}
	if d.CDFAt(time.Second) != 0.5 {
		t.Errorf("CDFAt(1s) = %f", d.CDFAt(time.Second))
	}
	if d.CDFAt(5*time.Second) != 1 {
		t.Errorf("CDFAt(5s) = %f", d.CDFAt(5*time.Second))
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Durations
		for _, v := range raw {
			d = append(d, time.Duration(v)*time.Millisecond)
		}
		pts := d.CDF(10)
		for i := 1; i < len(pts); i++ {
			if pts[i].Cum < pts[i-1].Cum || pts[i].X < pts[i-1].X {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].Cum == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntHistogram(t *testing.T) {
	h := &IntHistogram{}
	for _, v := range []int{1, 2, 2, 3, -5} {
		h.Add(v)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d (negatives must be ignored)", h.Total())
	}
	pdf := h.PDF()
	if pdf[2] != 0.5 || pdf[1] != 0.25 {
		t.Fatalf("pdf = %v", pdf)
	}
	if h.Mean() != 2 {
		t.Fatalf("mean = %f", h.Mean())
	}
}

func TestQuickHistogramPDFSumsToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		h := &IntHistogram{}
		for _, v := range raw {
			h.Add(int(v) % 16)
		}
		if h.Total() == 0 {
			return true
		}
		sum := 0.0
		for _, p := range h.PDF() {
			sum += p
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	d := Durations{3, 1, 2}
	s := d.Sorted()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatal("not sorted")
	}
	if d[0] != 3 {
		t.Fatal("original mutated")
	}
}

// TestSortedViewMatchesOneShot pins the contract that powered the
// sort-once refactor: every rank statistic on a Sorted view equals its
// one-shot Durations counterpart, for random samples with ties.
func TestSortedViewMatchesOneShot(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		var d Durations
		for _, v := range raw {
			d = append(d, time.Duration(v%97)*time.Millisecond) // force ties
		}
		s := d.Sorted()
		p := float64(pRaw % 101)
		if d.Percentile(p) != s.Percentile(p) {
			return false
		}
		limit := time.Duration(pRaw) * time.Millisecond
		if d.CDFAt(limit) != s.CDFAt(limit) {
			return false
		}
		dp, sp := d.CDF(7), s.CDF(7)
		if len(dp) != len(sp) {
			return false
		}
		for i := range dp {
			if dp[i] != sp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileFloorConvention pins the floor-index rule the experiment
// harness's five-number summaries use (idx = ⌊q·n⌋).
func TestQuantileFloorConvention(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	s := d.Sorted()
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{0.05, 6 * time.Millisecond},  // ⌊0.05·100⌋ = 5 → 6th element
		{0.50, 51 * time.Millisecond}, // differs from nearest-rank P50 by one rank
		{0.90, 91 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %s, want %s", c.q, got, c.want)
		}
	}
	if (Sorted{}).Quantile(0.5) != 0 || (Sorted{}).Percentile(50) != 0 {
		t.Error("empty sorted views must be zero")
	}
}
