package metrics

import (
	"sync"
	"testing"
)

func TestCounterShardedTotal(t *testing.T) {
	t.Parallel()
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Total(); got != 8*10005 {
		t.Fatalf("total %d, want %d", got, 8*10005)
	}
}

// TestDrainRacesObserve: observations racing delta builds — committed
// or handed back as if the send failed — land in exactly one committed
// report, and Count and Sum stay lifetime totals.
func TestDrainRacesObserve(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	h := reg.Histogram("lat", KindHistLinear)
	const writers, each = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(i % 8))
			}
		}()
	}
	var st deltaState
	var rep Report
	var got [NumBuckets]uint64
	var sum int64
	build := func(fail bool) {
		if !appendDelta(reg, &st, &rep) {
			return
		}
		if fail {
			restoreDelta(reg, &rep)
			return
		}
		for _, hd := range rep.H {
			for i := 0; i+1 < len(hd.B); i += 2 {
				got[hd.B[i]] += hd.B[i+1]
			}
			sum += hd.S
		}
		commitDelta(&st, &rep)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for n := 0; ; n++ {
		select {
		case <-done:
			// A sum ships beside its buckets, so a last zero sample
			// carries whatever sum raced the previous drain.
			h.Observe(0)
			build(false)
			got[0]--
			for b := 0; b < 8; b++ {
				if got[b] != writers*each/8 {
					t.Fatalf("bucket %d reported %d times, want %d", b, got[b], writers*each/8)
				}
			}
			if want := int64(writers * each / 8 * 28); sum != want || h.Sum() != want || h.Count() != writers*each+1 {
				t.Fatalf("reported sum %d, Sum %d, Count %d; want %d, %d, %d", sum, h.Sum(), h.Count(), want, want, writers*each+1)
			}
			return
		default:
			build(n%3 == 0)
		}
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	t.Parallel()
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(-2)
	h.Observe(9)
	if c.Total() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", KindHistPow2) != nil || r.Len() != 0 {
		t.Fatal("nil registry handed out live instruments")
	}
}

func TestRegistryIdempotentAndKindSafe(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("same name produced distinct counters")
	}
	if r.Gauge("a") != nil {
		t.Fatal("kind mismatch produced a live gauge")
	}
	if r.Histogram("h", KindCounter) != nil {
		t.Fatal("non-histogram kind accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("len %d, want 1", r.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	cases := []struct {
		kind Kind
		v    int64
		want int
	}{
		{KindHistLinear, -3, 0}, {KindHistLinear, 0, 0}, {KindHistLinear, 5, 5},
		{KindHistLinear, 63, 63}, {KindHistLinear, 1000, 63},
		{KindHistPow2, 0, 0}, {KindHistPow2, 1, 1}, {KindHistPow2, 2, 2},
		{KindHistPow2, 3, 2}, {KindHistPow2, 4, 3}, {KindHistPow2, 1 << 40, 41},
		{KindHistPow2, 1<<63 - 1, 63},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.kind, tc.v); got != tc.want {
			t.Errorf("bucketOf(%v, %d) = %d, want %d", tc.kind, tc.v, got, tc.want)
		}
	}
	// Upper bounds bracket their bucket.
	for i := 1; i < 63; i++ {
		up := BucketUpper(KindHistPow2, i)
		if bucketOf(KindHistPow2, up) != i || bucketOf(KindHistPow2, up+1) != i+1 {
			t.Fatalf("pow2 bucket %d upper bound %d misbrackets", i, up)
		}
	}
}

func TestDeltaReports(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	c := reg.Counter("calls")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat", KindHistPow2)

	var st deltaState
	var rep Report
	// flush mirrors Reporter.Flush: build, then commit as if the frame
	// reached the wire.
	flush := func() bool {
		if !appendDelta(reg, &st, &rep) {
			return false
		}
		commitDelta(&st, &rep)
		return true
	}
	c.Add(10)
	g.Set(4)
	h.Observe(100)
	if !flush() {
		t.Fatal("first delta empty")
	}
	if len(rep.Defs) != 3 || len(rep.C) != 1 || len(rep.G) != 1 || len(rep.H) != 1 {
		t.Fatalf("first report %+v", rep)
	}
	if rep.C[0].D != 10 || rep.G[0].V != 4 || rep.H[0].S != 100 {
		t.Fatalf("first deltas %+v", rep)
	}

	// Nothing changed: no frame.
	if flush() {
		t.Fatalf("idle delta not empty: %+v", rep)
	}

	// Increments only ship the difference, and defs are not resent.
	c.Add(5)
	h.Observe(100)
	h.Observe(3)
	if !flush() {
		t.Fatal("second delta empty")
	}
	if len(rep.Defs) != 0 {
		t.Fatalf("defs resent: %+v", rep.Defs)
	}
	if rep.C[0].D != 5 {
		t.Fatalf("counter delta %d, want 5", rep.C[0].D)
	}
	if len(rep.H) != 1 || rep.H[0].S != 103 || len(rep.H[0].B) != 4 {
		t.Fatalf("hist delta %+v", rep.H)
	}

	// Instruments registered later ship their def on the next delta.
	reg.Counter("late").Inc()
	if !flush() {
		t.Fatal("late delta empty")
	}
	if len(rep.Defs) != 1 || rep.Defs[0].Name != "late" || rep.Defs[0].ID != 3 {
		t.Fatalf("late defs %+v", rep.Defs)
	}

	// A failed send keeps its deltas: restoreDelta hands the drained
	// buckets back (as Reporter.Flush does), and the next build
	// re-reports everything.
	c.Add(7)
	h.Observe(9)
	if !appendDelta(reg, &st, &rep) || rep.C[0].D != 7 || len(rep.H) != 1 {
		t.Fatalf("pre-failure delta %+v", rep)
	}
	restoreDelta(reg, &rep)
	c.Add(1) // more activity while the frame was failing
	h.Observe(9)
	if !appendDelta(reg, &st, &rep) {
		t.Fatal("post-failure delta empty")
	}
	if rep.C[0].D != 8 {
		t.Fatalf("deltas lost across a failed send: %+v", rep.C)
	}
	if len(rep.H) != 1 || rep.H[0].S != 18 || len(rep.H[0].B) != 2 || rep.H[0].B[0] != 4 || rep.H[0].B[1] != 2 {
		t.Fatalf("histogram deltas across a failed send: %+v", rep.H)
	}
	commitDelta(&st, &rep)
	if appendDelta(reg, &st, &rep) {
		t.Fatalf("committed deltas resent: %+v", rep)
	}
}
