package experiments

import (
	"fmt"

	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/topology"
)

func init() {
	register("lookup10k", lookup10k)
}

// lookup10k pushes the paper's headline Chord deployment (§5: 1,100
// hosts on ModelNet) an order of magnitude past testbed scale: converged
// rings of 2,000, 5,000 and 10,000 nodes on the ModelNet transit-stub
// model, two lookups per node from random sources. It exists to exercise
// the message plane at populations where the RPC envelope cost, not the
// kernel, bounds wall-clock time — the workload BENCH_rpc.json's fast
// path is accountable to. Reported per population: route-length mean
// against the ½·log₂N bound and lookup-delay percentiles.
func lookup10k(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("lookup10k")
	fmt.Fprintf(w, "# lookup10k — Chord beyond testbed scale (ModelNet model)\n")
	fmt.Fprintf(w, "%-8s %9s %9s %9s %9s %9s %7s\n",
		"nodes", "p5", "p50", "p90", "mean-hops", "bound", "fails")
	for _, full := range []int{2000, 5000, 10000} {
		n := opt.n(full, 60)
		mn := topology.NewModelNet(topology.DefaultModelNet(n))
		run, err := chordRing(oneBed(mn, n, opt.Seed, nil), chord.DefaultConfig(), opt.n(2*full, n), opt.Seed, chordOpts{})
		if err != nil {
			return nil, fmt.Errorf("lookup10k %d nodes: %w", n, err)
		}
		sorted := run.delays.Sorted()
		p5, p50, p90 := sorted.Percentile(5), sorted.Percentile(50), sorted.Percentile(90)
		fmt.Fprintf(w, "%-8d %9s %9s %9s %9.2f %9.2f %7d\n",
			n, r(p5), r(p50), r(p90), run.hops.Mean(), 0.5*log2(float64(n)), run.fails)
		res.Metrics[fmt.Sprintf("p50_ms_%d", full)] = float64(p50.Milliseconds())
		res.Metrics[fmt.Sprintf("p90_ms_%d", full)] = float64(p90.Milliseconds())
		res.Metrics[fmt.Sprintf("mean_hops_%d", full)] = run.hops.Mean()
		res.Metrics[fmt.Sprintf("fails_%d", full)] = float64(run.fails)
	}
	return res, nil
}
