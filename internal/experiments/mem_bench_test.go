package experiments

import (
	"testing"
)

// BenchmarkMemFootprint10k is the memory plane's CI smoke: a converged
// 10,000-node Chord ring on the 8-way sharded kernel, one lookup per
// node, measured live-heap-per-instance. The custom metrics feed
// BENCH_mem.json; the ci job gates B/inst against the pinned budget the
// same way the alloc gates pin the latency planes. Run with
// -benchtime 1x — the figure is a footprint, not a throughput.
func BenchmarkMemFootprint10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := shardedChord(lookup100kParts, 1, 10000, 10000, 2009, true)
		if err != nil {
			b.Fatal(err)
		}
		rep := run.footprint
		if run.fails > 0 {
			b.Fatalf("footprint smoke: %d failed lookups", run.fails)
		}
		b.ReportMetric(rep.PerInstance(), "B/inst")
		b.ReportMetric(float64(rep.HeapBytes)/(1<<20), "MB-live")
		b.ReportMetric(float64(rep.PeakBytes)/(1<<20), "MB-peak")
		b.Log("\n" + rep.String())
	}
}

// TestMemFootprintSmall keeps the footprint harness itself honest in the
// ordinary test run: a small ring must produce a coherent report (layers
// don't exceed the total, lookups succeed).
func TestMemFootprintSmall(t *testing.T) {
	run, err := shardedChord(4, 1, 256, 256, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := run.footprint
	if run.fails > 0 {
		t.Fatalf("%d failed lookups", run.fails)
	}
	if rep.Instances != 256 {
		t.Fatalf("instances = %d, want 256", rep.Instances)
	}
	if rep.HeapBytes == 0 {
		t.Fatal("footprint report measured zero heap growth")
	}
	var layers uint64
	for _, l := range rep.Layers {
		layers += l.Bytes
		// The shared path (one chord.Shared per partition) keeps its slab:
		// intern base plus four slab chunks, as before private Shareds
		// stopped using one.
		if l.Label == "chord.ring" && l.Bytes != 133240 {
			t.Fatalf("chord.ring reports %d bytes, want 133240", l.Bytes)
		}
	}
	if layers > rep.HeapBytes {
		t.Fatalf("layer sources claim %d bytes, more than the %d measured", layers, rep.HeapBytes)
	}
}
