package experiments

import (
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/hostmodel"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simbed"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/stream"
)

func init() {
	register("fig7a", fig7a)
	register("fig7b", fig7b)
	register("fig7c", fig7c)
	register("fig8", fig8)
}

// clusterModel is the §5.3 experimental cluster: 11 machines on a
// switched gigabit network.
func clusterModel() simnet.LinkModel {
	return simnet.Symmetric{RTT: time.Millisecond, Bps: 125e6}
}

// pastryRun measures lookup delays over a converged Pastry network hosted
// on a modeled physical cluster.
func pastryRun(n int, kind hostmodel.Kind, physHosts, lookups int, seed int64) (stats.Durations, error) {
	cluster := hostmodel.NewCluster(hostmodel.DefaultConfig(physHosts))
	cluster.AssignInstances(n, kind)
	bed := oneBed(clusterModel(), n, seed, nil)
	bed.Net.SetProcDelay(cluster.Hook(bed.K.Now))
	return pastryRing(bed, lookups, seed, 60*time.Second)
}

// pastryRing is the one Pastry driver: it deploys a converged Pastry node on
// every host of a one-partition bed and measures the delays of lookups
// issued from every node, their starts spread uniformly over spread.
func pastryRing(bed *simbed.Bed, lookups int, seed int64, spread time.Duration) (stats.Durations, error) {
	k, n := bed.K, bed.Net.NumHosts()
	rng := stream.Rand(seed, "pastryring", 0)
	nodes := make([]*pastry.Node, 0, n)
	ctxs := make([]*core.AppContext, 0, n)
	for i := 0; i < n; i++ {
		cfg := pastry.DefaultConfig()
		id := pastry.ID(rng.Uint64())
		cfg.ID = &id
		ctxs = append(ctxs, bed.Context(i, 9000))
		nodes = append(nodes, pastry.New(ctxs[i], cfg))
	}
	if err := bed.StartAll(upTo(n), func(i int) error { return nodes[i].Start() }); err != nil {
		return nil, err
	}
	if err := pastry.BuildNetwork(nodes, pastry.BuildOptions{Seed: seed}); err != nil {
		return nil, err
	}

	var delays stats.Durations
	perNode := lookups/n + 1
	for i := range nodes {
		node, keys := nodes[i], ctxs[i]
		k.GoAfter(time.Duration(rng.Intn(int(spread/time.Millisecond)))*time.Millisecond, func() {
			for j := 0; j < perNode; j++ {
				if res, err := node.Route(pastry.ID(keys.Rand().Uint64())); err == nil {
					delays = append(delays, res.RTT)
				}
			}
		})
	}
	k.Run()
	return delays, nil
}

// fig7a reproduces Fig. 7(a): delay CDFs for FreePastry versus Pastry for
// SPLAY at 980 nodes on the 11-machine cluster.
func fig7a(opt Options) (*Result, error) {
	w := opt.out()
	n := opt.n(980, 100)
	lookups := opt.n(4000, 400)
	fp, err := pastryRun(n, hostmodel.JVM, 11, lookups, opt.Seed)
	if err != nil {
		return nil, err
	}
	sp, err := pastryRun(n, hostmodel.Splay, 11, lookups, opt.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# Fig. 7(a) — Pastry delay CDF, %d nodes on 11 hosts\n", n)
	printCDF(w, "freepastry", fp, 10)
	printCDF(w, "splay-pastry", sp, 10)

	res := newResult("fig7a")
	res.Metrics["freepastry_median_ms"] = float64(fp.Percentile(50).Milliseconds())
	res.Metrics["splay_median_ms"] = float64(sp.Percentile(50).Milliseconds())
	return res, nil
}

// fig7b reproduces Fig. 7(b): FreePastry delay percentiles as the node
// count grows toward the 1,980-node swap wall.
func fig7b(opt Options) (*Result, error) {
	return pastryScaling(opt, "fig7b", hostmodel.JVM,
		[]int{220, 550, 1100, 1430, 1650, 1760, 1870, 1980})
}

// fig7c reproduces Fig. 7(c): SPLAY Pastry delay percentiles up to 5,500
// nodes (500 per host).
func fig7c(opt Options) (*Result, error) {
	return pastryScaling(opt, "fig7c", hostmodel.Splay,
		[]int{550, 1100, 2200, 3300, 4400, 5500})
}

func pastryScaling(opt Options, id string, kind hostmodel.Kind, sweep []int) (*Result, error) {
	w := opt.out()
	res := newResult(id)
	fmt.Fprintf(w, "# Fig. 7 sweep (%s) — delay percentiles vs population\n", kind)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s\n", "nodes", "p5", "p25", "p50", "p75", "p90")
	for _, full := range sweep {
		n := opt.n(full, 60)
		delays, err := pastryRun(n, kind, 11, opt.n(2000, 300), opt.Seed)
		if err != nil {
			return nil, err
		}
		p := pctiles(delays)
		fmt.Fprintf(w, "%-8d %10s %10s %10s %10s %10s\n", n,
			r(p[0]), r(p[1]), r(p[2]), r(p[3]), r(p[4]))
		res.Metrics[fmt.Sprintf("p50_ms_%d", full)] = float64(p[2].Milliseconds())
		res.Metrics[fmt.Sprintf("p90_ms_%d", full)] = float64(p[4].Milliseconds())
	}
	return res, nil
}

func r(d time.Duration) string { return d.Round(time.Millisecond).String() }

// fig8 reproduces Fig. 8: memory per instance and host load as Pastry
// instances accumulate on a single machine, with the swap onset at 1,263
// instances. (The companion benchmark BenchmarkFig8Footprint measures the
// real Go heap per instance.)
func fig8(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig8")
	cfg := hostmodel.DefaultConfig(1)
	fmt.Fprintf(w, "# Fig. 8 — one host filling with SPLAY Pastry instances\n")
	fmt.Fprintf(w, "%-10s %14s %10s %8s\n", "instances", "mem/instance", "load", "swap")
	onset := 0
	for n := 100; n <= 1400; n += 100 {
		cluster := hostmodel.NewCluster(cfg)
		cluster.AssignInstances(n, hostmodel.Splay)
		// One request per instance per minute (the paper's workload),
		// exercised through the processing model for one virtual minute.
		now := sim.Epoch
		for i := 0; i < n; i++ {
			at := now.Add(time.Duration(i) * time.Minute / time.Duration(n))
			cluster.ProcDelay(at, i, 1024)
		}
		cluster.ProcDelay(now.Add(time.Minute+time.Second), 0, 1024) // close the window
		swapping := cluster.Swapping(0)
		if swapping && onset == 0 {
			onset = n
		}
		fmt.Fprintf(w, "%-10d %14s %10.3f %8v\n", n,
			fmtBytes(cluster.MemPerInstance(0)), cluster.Load(0), swapping)
	}
	analytic := hostmodel.NewCluster(cfg).SwapOnset(hostmodel.Splay)
	fmt.Fprintf(w, "swap onset: analytic %d instances (paper: 1,263)\n", analytic)
	res.Metrics["swap_onset"] = float64(analytic)
	res.Metrics["first_swapping_sweep"] = float64(onset)
	per := hostmodel.NewCluster(cfg)
	per.AssignInstances(1000, hostmodel.Splay)
	res.Metrics["mem_per_instance_mb"] = float64(per.MemPerInstance(0)) / (1 << 20)
	return res, nil
}

func fmtBytes(b int64) string {
	return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
}
