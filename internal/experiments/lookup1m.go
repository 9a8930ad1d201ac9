package experiments

import "fmt"

func init() {
	register("lookup1m", lookup1m)
}

// lookup1mParts is the partition count of the sharded kernel. Like
// lookup100kParts it is part of the scenario definition — the schedule
// depends on it, never on the worker count.
const lookup1mParts = 16

// lookup1m is the memory plane's headline experiment: a converged Chord
// ring of one million nodes — two orders of magnitude past the paper's
// fig8 ceiling — on a 16-way sharded kernel, one lookup per node, with
// the footprint accountant measuring live bytes per instance while the
// whole ring is still reachable. The paper bounds a Pastry instance
// under 1.5 MB of splayd memory; the compact memory plane (interned
// routing refs, shared RPC fabric, lazy instruments) holds a Chord
// instance to a few KB, which is what makes the population fit one
// process. CI runs the 500k-node variant (TestLookup1mHalfMillion);
// EXPERIMENTS.md records the full-scale run.
//
// Footprint figures are printed to the output only: live-heap
// measurements depend on whatever else shares the process (the golden
// suite runs experiments concurrently), so the pinned Result.Metrics
// carry only schedule-determined numbers — lookup latency, hop counts
// and failures.
func lookup1m(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("lookup1m")
	const full = 1000000
	n := opt.n(full, 96)
	fmt.Fprintf(w, "# lookup1m — Chord at %d hosts (%d-way sharded kernel)\n", n, lookup1mParts)
	run, err := shardedChord(lookup1mParts, opt.Workers, n, n, opt.Seed, true)
	if err != nil {
		return nil, fmt.Errorf("lookup1m %d nodes: %w", n, err)
	}
	rep := run.footprint
	sorted := run.delays.Sorted()
	p50, p90 := sorted.Percentile(50), sorted.Percentile(90)
	fmt.Fprintf(w, "%-8s %9s %9s %9s %9s %7s\n",
		"nodes", "p50", "p90", "mean-hops", "bound", "fails")
	fmt.Fprintf(w, "%-8d %9s %9s %9.2f %9.2f %7d\n",
		n, r(p50), r(p90), run.hops.Mean(), 0.5*log2(float64(n)), run.fails)
	fmt.Fprintf(w, "\n%s", rep.String())
	fmt.Fprintf(w, "paper fig8 bound: <1.5 MB/instance; measured %.0f B/instance (%.0fx headroom)\n",
		rep.PerInstance(), 1.5*(1<<20)/maxf(rep.PerInstance(), 1))
	res.Metrics["p50_ms"] = float64(p50.Milliseconds())
	res.Metrics["p90_ms"] = float64(p90.Milliseconds())
	res.Metrics["mean_hops"] = run.hops.Mean()
	res.Metrics["fails"] = float64(run.fails)
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
