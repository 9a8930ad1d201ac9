package experiments

import (
	"bytes"
	"testing"
)

// TestFaultplaneReconverges runs the fault-plane experiment at golden
// scale and checks the closed loop's shape: the partition bit, the heal
// rule fired exactly once, and lookups reconverged with bounded lag. The
// experiment's own assertions (partition-bites, lookups-reconverge)
// already gate the run — an assertion failure surfaces as an error here.
func TestFaultplaneReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault-plane run")
	}
	t.Parallel()
	res, err := Run("faultplane", Options{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["heal_fires"]; got != 1 {
		t.Errorf("heal rule fired %g times, want 1", got)
	}
	if res.Metrics["failed_lookups"] == 0 {
		t.Error("partition caused no observed failures")
	}
	if lag := res.Metrics["reconverge_s"]; lag < 0 || lag > 60 {
		t.Errorf("reconvergence lag %gs, want within [0, 60]", lag)
	}
	if res.Metrics["heal_s"] <= fpPartitionAt.Seconds() {
		t.Errorf("heal at %gs, before the partition at %s", res.Metrics["heal_s"], fpPartitionAt)
	}
	wantLookups := res.Metrics["nodes"] * fpRounds
	if res.Metrics["lookups"] != wantLookups {
		t.Errorf("lookups = %g, want %g (every node finished its rounds)",
			res.Metrics["lookups"], wantLookups)
	}
}

// TestFaultplaneDeterministic runs the same seeded fault plan at several
// worker counts and requires bit-identical metrics AND byte-identical
// output: fault injection must not perturb the simulation's determinism,
// and the Workers knob must never leak into a result. At golden scale the
// testbed has one partition; at 2,050 daemons it has two, so the cut, the
// heal and the metric trigger between them cross the kernel's barriers.
func TestFaultplaneDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("five full fault-plane runs")
	}
	t.Parallel()
	for _, c := range []struct {
		scale   float64
		workers []int
	}{{0.05, []int{1, 2, 4}}, {0.82, []int{1, 2}}} {
		outs := make([]bytes.Buffer, len(c.workers))
		runs := make([]*Result, len(c.workers))
		for i, w := range c.workers {
			res, err := Run("faultplane", Options{Scale: c.scale, Seed: 23, Out: &outs[i], Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res
		}
		for i := 1; i < len(c.workers); i++ {
			if !bytes.Equal(outs[0].Bytes(), outs[i].Bytes()) {
				t.Errorf("scale %g, workers=%d: same seeded plan produced different output bytes than workers=1", c.scale, c.workers[i])
			}
			if len(runs[0].Metrics) != len(runs[i].Metrics) {
				t.Fatalf("metric counts differ: %d vs %d", len(runs[0].Metrics), len(runs[i].Metrics))
			}
			for k, v := range runs[0].Metrics {
				if w, ok := runs[i].Metrics[k]; !ok || w != v {
					t.Errorf("scale %g: metric %s drifted between identical runs: %v vs %v", c.scale, k, v, w)
				}
			}
		}
	}
}
