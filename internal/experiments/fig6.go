package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/simbed"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/transport"
)

func init() {
	register("fig6a", fig6a)
	register("fig6b", fig6b)
	register("fig6c", fig6c)
}

// chordRun is the outcome of one Chord deployment measurement.
type chordRun struct {
	hops      *stats.IntHistogram
	delays    stats.Durations
	fails     int
	footprint memprof.Report // zero unless chordOpts.acct measured it
}

// oneBed is the figure harnesses' substrate: one partition — every host on
// partition 0, no lookahead — hence the plain single-kernel wiring, which
// cannot fail: only sharding constrains the link model.
func oneBed(model simnet.LinkModel, hosts int, seed int64, proc simnet.ProcDelayFunc) *simbed.Bed {
	bed, err := simbed.New(1, 1, model, make([]int, hosts), 0, seed, proc)
	if err != nil {
		panic(err)
	}
	return bed
}

// fig6a reproduces Fig. 6(a): Chord route-length PDFs on ModelNet for
// 300, 500 and 1,000 nodes (50 lookups per node).
func fig6a(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig6a")
	fmt.Fprintf(w, "# Fig. 6(a) — Chord on ModelNet: route length PDF\n")
	for _, full := range []int{300, 500, 1000} {
		n := opt.n(full, 30)
		mn := topology.NewModelNet(topology.DefaultModelNet(n))
		run, err := chordRing(oneBed(mn, n, opt.Seed, nil), chord.DefaultConfig(), opt.n(50*full, n), opt.Seed, chordOpts{})
		if err != nil {
			return nil, err
		}
		pdf := run.hops.PDF()
		fmt.Fprintf(w, "## %d nodes (mean %.2f hops, ½·log2 N = %.2f)\n",
			n, run.hops.Mean(), 0.5*log2(float64(n)))
		for h, p := range pdf {
			fmt.Fprintf(w, "hops=%-2d %6.2f%%\n", h, p*100)
		}
		res.Metrics[fmt.Sprintf("mean_hops_%d", full)] = run.hops.Mean()
		res.Metrics[fmt.Sprintf("bound_%d", full)] = 0.5 * log2(float64(n))
	}
	return res, nil
}

// fig6b reproduces Fig. 6(b): Chord lookup-delay CDFs on ModelNet.
func fig6b(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig6b")
	fmt.Fprintf(w, "# Fig. 6(b) — Chord on ModelNet: lookup delay CDF\n")
	for _, full := range []int{300, 500, 1000} {
		n := opt.n(full, 30)
		mn := topology.NewModelNet(topology.DefaultModelNet(n))
		run, err := chordRing(oneBed(mn, n, opt.Seed, nil), chord.DefaultConfig(), opt.n(50*full, n), opt.Seed, chordOpts{})
		if err != nil {
			return nil, err
		}
		printCDF(w, fmt.Sprintf("%d-nodes", n), run.delays, 10)
		sorted := run.delays.Sorted() // one sort serves both percentiles
		res.Metrics[fmt.Sprintf("median_ms_%d", full)] =
			float64(sorted.Percentile(50).Milliseconds())
		res.Metrics[fmt.Sprintf("p90_ms_%d", full)] =
			float64(sorted.Percentile(90).Milliseconds())
	}
	return res, nil
}

// fig6c reproduces Fig. 6(c): fault-tolerant Chord on PlanetLab versus
// the latency-aware MIT Chord baseline, 5,000 lookups on 380 nodes.
func fig6c(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig6c")
	n := opt.n(380, 40)
	lookups := opt.n(5000, 500)

	plCfg := topology.DefaultPlanetLab(n)
	plCfg.Seed = opt.Seed

	runVariant := func(oracle bool) (*chordRun, error) {
		pl := topology.NewPlanetLab(plCfg)
		var orc chord.RTTOracle
		if oracle {
			orc = func(a, b transport.Addr) time.Duration {
				ia, _ := simnet.HostID(a.Host)
				ib, _ := simnet.HostID(b.Host)
				return 2 * pl.Delay(ia, ib)
			}
		}
		return chordRing(oneBed(pl, n, opt.Seed, pl.ProcDelay), chord.FaultTolerantConfig(), lookups, opt.Seed, chordOpts{oracle: orc})
	}
	splay, err := runVariant(false)
	if err != nil {
		return nil, err
	}
	mit, err := runVariant(true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# Fig. 6(c) — Chord on PlanetLab (%d nodes, %d lookups)\n", n, lookups)
	printCDF(w, "splay-chord", splay.delays, 10)
	printCDF(w, "mit-chord", mit.delays, 10)
	fmt.Fprintf(w, "mean route length: splay=%.2f mit=%.2f (paper: 4.1 both)\n",
		splay.hops.Mean(), mit.hops.Mean())

	res.Metrics["splay_median_ms"] = float64(splay.delays.Percentile(50).Milliseconds())
	res.Metrics["mit_median_ms"] = float64(mit.delays.Percentile(50).Milliseconds())
	res.Metrics["splay_mean_hops"] = splay.hops.Mean()
	res.Metrics["mit_mean_hops"] = mit.hops.Mean()
	return res, nil
}

func log2(x float64) float64 { return math.Log2(x) }
