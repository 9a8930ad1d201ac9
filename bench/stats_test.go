package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{ten, 1, 1},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 4, 7},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestMedianRates(t *testing.T) {
	sec := time.Second
	slices := []slice{
		{sim: 10 * sec, wall: 1 * sec, ops: 100},
		{sim: 10 * sec, wall: 2 * sec, ops: 100},
		{sim: 10 * sec, wall: 10 * sec, ops: 100}, // the noisy neighbour
	}
	speed, ops := medianRates(slices)
	if !near(speed, 5) {
		t.Errorf("sim_speed = %v, want the median slice's 5", speed)
	}
	// 300 ops over 30 simulated seconds, carried at 5 sim-s/s.
	if !near(ops, 50) {
		t.Errorf("ops_per_s = %v, want 50", ops)
	}
	if s, o := medianRates(nil); s != 0 || o != 0 {
		t.Errorf("empty window rates = %v %v", s, o)
	}
}

func TestDigest(t *testing.T) {
	a := digest("w", 1, int64(2), "x")
	if a != digest("w", 1, int64(2), "x") {
		t.Error("digest is not a function of its fields")
	}
	if len(a) != 16 {
		t.Errorf("digest %q: want 16 hex digits", a)
	}
	for _, other := range []string{digest("w", 1, int64(3), "x"), digest("w", 12, "x"), digest("w1", 2, "x")} {
		if other == a {
			t.Errorf("digest collision on different fields: %s", a)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	endInner = tr.begin("inner")
	endInner()
	endOuter()
	if got := len(tr.durations("inner")); got != 2 {
		t.Fatalf("%d inner spans, want 2", got)
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 0 0", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	self := tr.selfTimes()
	if want := tr.total("outer") - tr.total("inner"); self["outer"] != want {
		t.Errorf("outer self time %v, want %v", self["outer"], want)
	}
	if self["inner"] != tr.total("inner") || self["inner"] < 2*time.Millisecond {
		t.Errorf("inner self time %v, total %v", self["inner"], tr.total("inner"))
	}
	// A nil tracer is tracing off: everything is a no-op.
	var off *tracer
	off.begin("x")()
	if off.total("x") != 0 || len(off.selfTimes()) != 0 || off.write(t.TempDir(), "x.json") != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestGuardVerdict(t *testing.T) {
	for _, c := range []struct {
		elapsed, allowed time.Duration
		heap, ceiling    uint64
		limit            string
	}{
		{time.Second, time.Minute, 1 << 20, 4 << 30, ""},
		{2 * time.Minute, time.Minute, 1 << 20, 4 << 30, "wall deadline"},
		{time.Second, time.Minute, 5 << 30, 4 << 30, "heap ceiling"},
		{2 * time.Minute, time.Minute, 5 << 30, 4 << 30, "wall deadline"},
	} {
		err := verdict("w", c.elapsed, c.allowed, c.heap, c.ceiling)
		switch {
		case c.limit == "" && err != nil:
			t.Errorf("inside the rails, got %v", err)
		case c.limit != "" && (err == nil || err.Limit != c.limit):
			t.Errorf("want %s exceeded, got %v", c.limit, err)
		}
	}
	if heapInUse() == 0 {
		t.Error("heapInUse reads 0: the runtime metric name has changed")
	}
	var g *guard
	if g.check() != nil {
		t.Error("nil guard objected")
	}
	g.close()
}
