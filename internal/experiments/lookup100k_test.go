package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

func TestLookup100kShape(t *testing.T) {
	t.Parallel()
	res := run(t, "lookup100k", 0.002)
	for _, pop := range []int{25000, 50000, 100000} {
		hops := res.Metrics[fmt.Sprintf("mean_hops_%d", pop)]
		if hops <= 1 || hops > 9 {
			t.Errorf("pop %d: mean hops %.2f implausible for Chord", pop, hops)
		}
		if res.Metrics[fmt.Sprintf("p90_ms_%d", pop)] < res.Metrics[fmt.Sprintf("p50_ms_%d", pop)] {
			t.Errorf("pop %d: p90 below p50", pop)
		}
		if res.Metrics[fmt.Sprintf("fails_%d", pop)] != 0 {
			t.Errorf("pop %d: lookups failed on a converged ring", pop)
		}
	}
}

// TestLookup100kWorkerNeutrality is invariant 9 at the experiment surface:
// the sharded-kernel experiment must produce byte-identical output and
// bit-identical metrics whether 1, 2 or 4 OS threads drive its partitions.
func TestLookup100kWorkerNeutrality(t *testing.T) {
	t.Parallel()
	var base bytes.Buffer
	ref, err := Run("lookup100k", Options{Scale: 0.002, Seed: 17, Out: &base, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		var out bytes.Buffer
		res, err := Run("lookup100k", Options{Scale: 0.002, Seed: 17, Out: &out, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Bytes(), out.Bytes()) {
			t.Errorf("workers=%d: output bytes differ from workers=1:\n--- w1 ---\n%s--- w%d ---\n%s",
				w, base.String(), w, out.String())
		}
		if len(res.Metrics) != len(ref.Metrics) {
			t.Fatalf("workers=%d: metric counts differ", w)
		}
		for k, v := range ref.Metrics {
			if res.Metrics[k] != v {
				t.Errorf("workers=%d: metric %s = %v, want %v", w, k, res.Metrics[k], v)
			}
		}
	}
}

// TestLookup100kFullPopulation is the headline capability this repo's
// sharded kernel exists for: a converged 100,000-node Chord ring — two
// orders of magnitude past the paper's 1,100-host testbed — resolving one
// lookup per node with the expected ½·log₂N routes. About three minutes
// single-threaded; extra cores shorten it without changing a single event
// (worker neutrality is pinned by the golden suite at small scale).
func TestLookup100kFullPopulation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("100,000-host simulation")
	}
	n := 100000
	run, err := shardedChord(lookup100kParts, runtime.GOMAXPROCS(0), n, n, 2009, false)
	if err != nil {
		t.Fatal(err)
	}
	if run.fails != 0 {
		t.Errorf("%d lookups failed on a converged ring", run.fails)
	}
	if got := run.hops.Total(); got != n {
		t.Errorf("completed %d lookups, want %d", got, n)
	}
	mean, bound := run.hops.Mean(), 0.5*log2(float64(n))
	if mean < bound*0.7 || mean > bound*1.3 {
		t.Errorf("mean route length %.2f outside ±30%% of ½·log2 N = %.2f", mean, bound)
	}
}
