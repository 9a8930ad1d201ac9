package metrics

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc"
)

// BenchmarkMetricsHotPath is the instrument hot path CI pins at zero
// allocations: one counter increment plus one histogram observation,
// the cost every instrumented RPC or delivery pays when monitoring is
// on. The BENCH_metrics.json job gates allocs/op == 0.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench.calls")
	h := reg.Histogram("bench.latency", KindHistPow2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

// BenchmarkMetricsHotPathDisabled measures the same call sites with
// instrumentation off (nil instruments) — the cost uninstrumented
// deployments pay for the hooks.
func BenchmarkMetricsHotPathDisabled(b *testing.B) {
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

// BenchmarkMetricsHotPathParallel exercises the sharding under
// contention: every P hammers the same counter and histogram.
func BenchmarkMetricsHotPathParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench.calls")
	h := reg.Histogram("bench.latency", KindHistPow2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			c.Inc()
			h.Observe(i)
			i++
		}
	})
}

// BenchmarkMetricsDelta measures building one delta report frame for a
// registry with a typical instrument population (steady state: slices
// and scratch are reused, so the build itself stays allocation-free).
func BenchmarkMetricsDelta(b *testing.B) {
	reg := NewRegistry()
	counters := make([]*Counter, 8)
	for i := range counters {
		counters[i] = reg.Counter("c" + string(rune('a'+i)))
	}
	h := reg.Histogram("lat", KindHistPow2)
	var st deltaState
	var rep Report
	if appendDelta(reg, &st, &rep) { // ship defs once
		commitDelta(&st, &rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters[i%len(counters)].Inc()
		h.Observe(int64(i))
		if appendDelta(reg, &st, &rep) {
			commitDelta(&st, &rep)
		}
	}
}

// BenchmarkReportEncode measures the report's derived codec against a
// steady-state frame.
func BenchmarkReportEncode(b *testing.B) {
	rep := &Report{Key: "obs", Node: "n1234", Seq: 42,
		C: []Delta{{ID: 0, D: 12}, {ID: 3, D: 1}},
		H: []HistDelta{{ID: 5, B: []uint64{21, 3, 22, 1}, S: 12345678}},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = llenc.AppendDerived(buf[:0], rep)
		if !ok {
			b.Fatal("encoder declined")
		}
	}
}
