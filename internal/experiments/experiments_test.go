package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/topology"
)

// The experiment suite at small scale: every experiment must run and
// reproduce the paper's qualitative shape. Magnitude checks are loose —
// EXPERIMENTS.md records full-scale numbers.

func run(t *testing.T, id string, scale float64) *Result {
	t.Helper()
	var sb strings.Builder
	res, err := Run(id, Options{Scale: scale, Seed: 11, Out: &sb})
	if err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, sb.String())
	}
	if sb.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return res
}

func TestUnknownExperiment(t *testing.T) {
	t.Parallel()
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(IDs()) < 14 {
		t.Fatalf("registered experiments = %v", IDs())
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig3", 0.2)
	if p := res.Metrics["p_under_250ms"]; p < 0.12 || p > 0.22 {
		t.Errorf("P(≤250ms) = %.3f, paper: 0.171", p)
	}
	if p := res.Metrics["p_over_1s"]; p < 0.38 || p > 0.55 {
		t.Errorf("P(>1s) = %.3f, paper: ≈0.45", p)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig4", 1)
	if res.Metrics["pop_after_join"] != 10 {
		t.Errorf("initial join population = %v", res.Metrics["pop_after_join"])
	}
	if res.Metrics["pop_final"] != 0 {
		t.Errorf("final population = %v", res.Metrics["pop_final"])
	}
	if res.Metrics["pop_peak"] < 18 || res.Metrics["pop_peak"] > 24 {
		t.Errorf("peak population = %v, want ≈20", res.Metrics["pop_peak"])
	}
}

func TestTab1Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "tab1", 1)
	if res.Metrics["chord"] <= 0 || res.Metrics["pastry"] <= 0 {
		t.Fatal("missing protocol counts")
	}
	if res.Metrics["chord"] >= res.Metrics["pastry"] {
		t.Errorf("chord (%v) should be smaller than pastry (%v), as in the paper",
			res.Metrics["chord"], res.Metrics["pastry"])
	}
}

func TestFig6aShape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig6a", 0.12)
	for _, n := range []int{300, 500, 1000} {
		mean := res.Metrics[sprintf("mean_hops_%d", n)]
		bound := res.Metrics[sprintf("bound_%d", n)]
		if mean <= 0 || mean > bound+1.5 {
			t.Errorf("%d nodes: mean hops %.2f vs ½log2N %.2f", n, mean, bound)
		}
	}
}

func TestFig6cShape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig6c", 0.15)
	// MIT (latency-aware) must beat plain SPLAY Chord on delay.
	if res.Metrics["mit_median_ms"] >= res.Metrics["splay_median_ms"] {
		t.Errorf("mit median %.0fms not below splay %.0fms",
			res.Metrics["mit_median_ms"], res.Metrics["splay_median_ms"])
	}
}

func TestFig7aShape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig7a", 0.25)
	if res.Metrics["freepastry_median_ms"] <= res.Metrics["splay_median_ms"] {
		t.Errorf("freepastry median %.0fms not above splay %.0fms",
			res.Metrics["freepastry_median_ms"], res.Metrics["splay_median_ms"])
	}
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig8", 1)
	if res.Metrics["swap_onset"] != 1263 {
		t.Errorf("swap onset = %v, paper: 1263", res.Metrics["swap_onset"])
	}
	if m := res.Metrics["mem_per_instance_mb"]; m < 1.0 || m > 2.0 {
		t.Errorf("mem/instance = %.2f MB, paper: <1.5 MB", m)
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig12", 0.3)
	// Larger supersets deploy faster (or equal), and deployment times sit
	// in the paper's 0–10 s band.
	for _, req := range []int{100, 300} {
		t110 := res.Metrics[sprintf("t_%d_110", req)]
		t200 := res.Metrics[sprintf("t_%d_200", req)]
		if t200 > t110+0.5 {
			t.Errorf("req=%d: 200%% superset (%.1fs) slower than 110%% (%.1fs)", req, t200, t110)
		}
		if t110 <= 0 || t110 > 12 {
			t.Errorf("req=%d: deployment time %.1fs outside Fig. 12 band", req, t110)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	t.Parallel()
	res := run(t, "fig13", 0.25)
	for _, label := range []string{"splay-16KB", "splay-128KB", "splay-512KB",
		"crcp-16KB", "crcp-128KB", "crcp-512KB"} {
		if res.Metrics[label+"_completed"] <= 0 {
			t.Errorf("%s: no completions", label)
		}
	}
	// SPLAY and CRCP finish in the same ballpark (paper: similar results).
	sp := res.Metrics["splay-128KB_last_s"]
	cr := res.Metrics["crcp-128KB_last_s"]
	if sp <= 0 || cr <= 0 || sp > cr*2 || cr > sp*2 {
		t.Errorf("last completions diverge: splay=%.0fs crcp=%.0fs", sp, cr)
	}
}

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy churn experiment")
	}
	res := run(t, "fig10", 0.08)
	if res.Metrics["fail_pct_peak"] < 10 {
		t.Errorf("failure peak %.1f%% too low: massive failure must be visible", res.Metrics["fail_pct_peak"])
	}
	if res.Metrics["fail_pct_end"] > res.Metrics["fail_pct_peak"]/2 {
		t.Errorf("failures did not recover: peak %.1f%%, end %.1f%%",
			res.Metrics["fail_pct_peak"], res.Metrics["fail_pct_end"])
	}
}

func TestFig14Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy cache experiment")
	}
	res := run(t, "fig14", 0.16)
	// Small scale lowers the achievable ratio; full scale lands near the
	// paper's 77.6% (see EXPERIMENTS.md). Here: stable and substantial.
	if hr := res.Metrics["steady_hit_pct"]; hr < 40 || hr > 98 {
		t.Errorf("steady hit ratio %.1f%% implausible", hr)
	}
	if res.Metrics["p75_ms"] <= 0 {
		t.Error("no delay percentile recorded")
	}
}

func TestFig9Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy three-testbed experiment")
	}
	res := run(t, "fig9", 0.12)
	pl := res.Metrics["planetlab_median_ms"]
	mn := res.Metrics["modelnet_median_ms"]
	mx := res.Metrics["mixed_median_ms"]
	if pl <= 0 || mn <= 0 || mx <= 0 {
		t.Fatalf("missing medians: pl=%v mn=%v mixed=%v", pl, mn, mx)
	}
	// The mixed deployment's delays lie between the two pure testbeds'.
	lo, hi := pl, mn
	if lo > hi {
		lo, hi = hi, lo
	}
	if mx < lo*0.7 || mx > hi*1.3 {
		t.Errorf("mixed median %vms outside [%v, %v]ms band", mx, lo, hi)
	}
}

func TestCtlplaneShape(t *testing.T) {
	t.Parallel()
	res := run(t, "ctlplane", 0.05)
	for _, pop := range []int{100, 500, 1000, 2000, 5000} {
		p50 := res.Metrics[fmt.Sprintf("p50_s_%d", pop)]
		p90 := res.Metrics[fmt.Sprintf("p90_s_%d", pop)]
		sub := res.Metrics[fmt.Sprintf("submit_s_%d", pop)]
		if p50 <= 0 || p90 < p50 || sub < p90 {
			t.Errorf("pop %d: implausible percentiles p50=%v p90=%v submit=%v", pop, p50, p90, sub)
		}
		// REGISTER superset (1.25) + LIST + START per deployed node, plus
		// FREEs and a small ping share: well under 10 frames per node.
		fpn := res.Metrics[fmt.Sprintf("frames_per_node_%d", pop)]
		if fpn < 3 || fpn > 10 {
			t.Errorf("pop %d: frames/node = %v, want ≈3.5", pop, fpn)
		}
	}
}

func TestLookup10kShape(t *testing.T) {
	t.Parallel()
	res := run(t, "lookup10k", 0.02)
	for _, pop := range []int{2000, 5000, 10000} {
		hops := res.Metrics[fmt.Sprintf("mean_hops_%d", pop)]
		if hops <= 1 || hops > 8 {
			t.Errorf("pop %d: mean hops %.2f implausible for Chord", pop, hops)
		}
		if res.Metrics[fmt.Sprintf("p90_ms_%d", pop)] < res.Metrics[fmt.Sprintf("p50_ms_%d", pop)] {
			t.Errorf("pop %d: p90 below p50", pop)
		}
		if res.Metrics[fmt.Sprintf("fails_%d", pop)] != 0 {
			t.Errorf("pop %d: lookups failed on a converged ring", pop)
		}
	}
	// Route length grows with population (the log N law the paper checks).
	if res.Metrics["mean_hops_10000"] <= res.Metrics["mean_hops_2000"] {
		t.Errorf("hops did not grow with population: %v vs %v",
			res.Metrics["mean_hops_10000"], res.Metrics["mean_hops_2000"])
	}
}

// TestLookup10kFullPopulation pins the headline capability at paper-plus
// scale: a converged 10,000-node Chord ring resolves lookups with the
// expected ½·log₂N routes. Skipped in -short; the full run also anchors
// the EXPERIMENTS.md numbers.
func TestLookup10kFullPopulation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("10,000-host simulation")
	}
	n := 10000
	mn := topology.NewModelNet(topology.DefaultModelNet(n))
	run, err := chordRing(oneBed(mn, n, 2009, nil), chord.DefaultConfig(), n, 2009, chordOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if run.fails != 0 {
		t.Fatalf("%d lookups failed on a converged ring", run.fails)
	}
	if got, bound := run.hops.Mean(), 0.5*log2(float64(n)); got <= 1 || got > bound+1.5 {
		t.Fatalf("mean hops %.2f outside the ½·log₂N envelope (%.2f)", got, bound)
	}
}

// TestCtlplaneDeploys5000Daemons pins the headline capability: the
// control plane deploys a job across a 5,000-daemon simulated testbed.
func TestCtlplaneDeploys5000Daemons(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-population control-plane run")
	}
	run, err := runCtlplane(5000, 3000, 2009)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.delays) != 3000 {
		t.Fatalf("deployed %d instances, want 3000", len(run.delays))
	}
	p := pctiles(run.delays)
	if p[2] <= 0 || run.submit < p[4] {
		t.Fatalf("implausible deployment times: p50=%v p90=%v submit=%v", p[2], p[4], run.submit)
	}
}

// TestObsplaneShape checks the observability plane's small-scale run:
// every stream reports, the fleet accounting matches, and lookups
// resolve with Chord's expected route lengths — all read through the
// aggregator, not from in-process state.
func TestObsplaneShape(t *testing.T) {
	t.Parallel()
	res := run(t, "obsplane", 0.05)
	if res.Metrics["failed_lookups"] != 0 {
		t.Errorf("%v lookups failed on a converged ring", res.Metrics["failed_lookups"])
	}
	n := res.Metrics["nodes"]
	if res.Metrics["lookups"] != 2*n {
		t.Errorf("aggregated %v lookups, want %v", res.Metrics["lookups"], 2*n)
	}
	if res.Metrics["jobs_started"] != n {
		t.Errorf("fleet accounting %v, want %v", res.Metrics["jobs_started"], n)
	}
	hops := res.Metrics["mean_hops"]
	if hops <= 1 || hops > 0.5*log2(n)+1.5 {
		t.Errorf("mean hops %.2f outside the ½·log₂N envelope", hops)
	}
	// ACME-style overhead: the monitoring bill stays at a handful of
	// frames per node per second (the acceptance bound is "a few").
	if f := res.Metrics["frames_per_node_s"]; f <= 0 || f > 3 {
		t.Errorf("report load %.3f frames/node/s outside (0, 3]", f)
	}
}

// TestObsplane5000Daemons pins the headline capability: instrumented
// Chord deployed onto a 5,000-daemon simulated testbed with every
// instance streaming to the aggregator, monitoring overhead bounded.
func TestObsplane5000Daemons(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-population observability run")
	}
	run, err := runObsplane(io.Discard, 5000, 3000, 2009)
	if err != nil {
		t.Fatal(err)
	}
	if run.lookups != 6000 || run.failed != 0 {
		t.Fatalf("lookups %v (failed %v), want 6000/0", run.lookups, run.failed)
	}
	if run.jobsStarted != 3000 {
		t.Fatalf("fleet accounting %v, want 3000", run.jobsStarted)
	}
	if run.meanHops <= 1 || run.meanHops > 0.5*log2(3000)+1.5 {
		t.Fatalf("mean hops %.2f outside the ½·log₂N envelope", run.meanHops)
	}
	if run.framesPerNodeSec <= 0 || run.framesPerNodeSec > 3 {
		t.Fatalf("report load %.3f frames/node/s outside (0, 3]", run.framesPerNodeSec)
	}
}
