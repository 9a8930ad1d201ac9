package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/protocols/trees"
	"github.com/splaykit/splay/internal/protocols/webcache"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/workload"
)

func init() {
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig14", fig14)
}

// fig12 reproduces Fig. 12: deployment time on PlanetLab as a function of
// the number of nodes requested and the superset of daemons probed. The
// controller registers with superset×n daemons, deploys on the n most
// responsive, then completes the LIST/START exchange with the selected
// set; a larger superset avoids waiting on stragglers (§5.6; the default
// superset is 125%).
func fig12(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig12")
	const daemons = 450
	trials := opt.n(30, 5)

	plCfg := topology.DefaultPlanetLab(daemons)
	plCfg.Seed = opt.Seed
	pl := topology.NewPlanetLab(plCfg)

	fmt.Fprintf(w, "# Fig. 12 — deployment time vs requested nodes (450 daemons)\n")
	fmt.Fprintf(w, "%-10s", "requested")
	supersets := []float64{1.10, 1.30, 1.50, 1.70, 2.00}
	for _, s := range supersets {
		fmt.Fprintf(w, " %8.0f%%", s*100)
	}
	fmt.Fprintln(w)

	for _, req := range []int{50, 100, 150, 200, 250, 300, 350, 400} {
		fmt.Fprintf(w, "%-10d", req)
		for _, s := range supersets {
			probed := int(float64(req) * s)
			if probed > daemons {
				probed = daemons
			}
			var total time.Duration
			for trial := 0; trial < trials; trial++ {
				// REGISTER round with every probed daemon (job payload).
				regs := make([]time.Duration, probed)
				for i := 0; i < probed; i++ {
					regs[i] = pl.ProbeDelay(i, 4<<10)
				}
				sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
				tRegister := regs[req-1] // n-th fastest answers
				// LIST+START exchange with the selected (fast) daemons.
				var tStart time.Duration
				for i := 0; i < req; i++ {
					if d := pl.ProbeDelay(i, 1<<10) / 4; d > tStart {
						tStart = d
					}
				}
				total += tRegister + tStart
			}
			avg := total / time.Duration(trials)
			fmt.Fprintf(w, " %9s", avg.Round(100*time.Millisecond))
			res.Metrics[fmt.Sprintf("t_%d_%d", req, int(s*100))] = avg.Seconds()
		}
		fmt.Fprintln(w)
	}
	return res, nil
}

// fig13 reproduces Fig. 13: 24 MB disseminated to 63 nodes over two
// parallel binary trees on 1 Mbps links, SPLAY's parallel forwarding
// versus CRCP's sequential sends, at 16/128/512 KB block sizes.
func fig13(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig13")
	nodes := opt.n(64, 16)
	fileSize := opt.n(24<<20, 2<<20)

	fmt.Fprintf(w, "# Fig. 13 — tree dissemination, %d nodes, %s file, 1 Mbps\n",
		nodes-1, fmtBytes(int64(fileSize)))
	for _, policy := range []struct {
		name       string
		sequential bool
	}{{"splay", false}, {"crcp", true}} {
		for _, bs := range []int{16 << 10, 128 << 10, 512 << 10} {
			bed := oneBed(simnet.Symmetric{RTT: 20 * time.Millisecond, Bps: 1e6 / 8}, nodes, opt.Seed, nil)
			k := bed.K
			var ctxs []*core.AppContext
			for i := 0; i < nodes; i++ {
				ctxs = append(ctxs, bed.Context(i, 7000))
			}
			cfg := trees.Config{
				Nodes: nodes, Fanout: 2, Trees: 2,
				FileSize: fileSize, BlockSize: bs,
				Sequential: policy.sequential, Port: 7000,
			}
			var sess *trees.Session
			var serr error
			k.Go(func() {
				sess, serr = trees.NewSession(cfg, ctxs)
				if serr == nil {
					serr = sess.Start()
				}
			})
			k.RunFor(2 * time.Hour)
			if serr != nil {
				return nil, serr
			}
			var comps stats.Durations
			for i := 1; i < nodes; i++ {
				if !sess.Completions[i].IsZero() {
					comps = append(comps, sess.Completions[i].Sub(sim.Epoch))
				}
			}
			sortDur(comps)
			label := fmt.Sprintf("%s-%dKB", policy.name, bs>>10)
			if len(comps) == 0 {
				fmt.Fprintf(w, "%-16s no completions\n", label)
				continue
			}
			fmt.Fprintf(w, "%-16s completed=%d first=%s median=%s last=%s\n",
				label, len(comps), r(comps[0]),
				r(comps[len(comps)/2]), r(comps[len(comps)-1]))
			res.Metrics[label+"_completed"] = float64(len(comps))
			res.Metrics[label+"_last_s"] = comps[len(comps)-1].Seconds()
			res.Metrics[label+"_median_s"] = comps[len(comps)/2].Seconds()
		}
	}
	return res, nil
}

func sortDur(d stats.Durations) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// fig14 reproduces Fig. 14: the cooperative web cache's request delays
// and hit ratio under a continuous 100 req/s stream. The paper runs for
// days; virtual time is compressed to a window long enough for the cache
// to reach steady state, with the same per-bucket reporting.
func fig14(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig14")
	nodes := opt.n(100, 16)
	duration := time.Duration(float64(2*time.Hour) * opt.Scale)
	if duration < 20*time.Minute {
		duration = 20 * time.Minute
	}

	bed := oneBed(simnet.Symmetric{RTT: 10 * time.Millisecond, Bps: 12.5e6}, nodes, opt.Seed, nil)
	k := bed.K
	var pnodes []*pastry.Node
	var caches []*webcache.Cache
	for i := 0; i < nodes; i++ {
		ctx := bed.Context(i, 9000)
		p := pastry.New(ctx, pastry.DefaultConfig())
		pnodes = append(pnodes, p)
		caches = append(caches, webcache.New(ctx, p, webcache.DefaultConfig()))
	}
	err := bed.StartAll(upTo(nodes), func(i int) error {
		if err := pnodes[i].Start(); err != nil {
			return err
		}
		return caches[i].Start()
	})
	if err != nil {
		return nil, err
	}
	if err := pastry.BuildNetwork(pnodes, pastry.BuildOptions{Seed: opt.Seed}); err != nil {
		return nil, err
	}

	wcfg := workload.DefaultWeb()
	wcfg.Seed = opt.Seed
	gen, err := workload.NewWebRequests(wcfg)
	if err != nil {
		return nil, err
	}
	bucket := 10 * time.Minute
	nBuckets := int(duration/bucket) + 1
	hit := make([]int, nBuckets)
	miss := make([]int, nBuckets)
	delays := make([]stats.Durations, nBuckets)

	k.Go(func() {
		prev := time.Duration(0)
		i := 0
		for {
			at, url := gen.Next()
			if at > duration {
				return
			}
			k.Sleep(at - prev)
			prev = at
			cache := caches[i%len(caches)]
			i++
			k.Go(func() {
				start := k.Since()
				resGet, err := cache.Get(url)
				if err != nil {
					return
				}
				b := int(start / bucket)
				if b >= nBuckets {
					b = nBuckets - 1
				}
				if resGet.Hit {
					hit[b]++
				} else {
					miss[b]++
				}
				delays[b] = append(delays[b], resGet.Delay)
			})
		}
	})
	k.RunFor(duration + time.Minute)

	fmt.Fprintf(w, "# Fig. 14 — cooperative web cache, %d nodes, 100 req/s (window %s)\n", nodes, duration)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s\n", "t", "hit%", "p50", "p75", "p95")
	var steadyHits, steadyTotal int
	for b := 0; b < nBuckets; b++ {
		tot := hit[b] + miss[b]
		if tot == 0 {
			continue
		}
		hr := float64(hit[b]) / float64(tot) * 100
		sorted := delays[b].Sorted() // one sort serves all three percentiles
		fmt.Fprintf(w, "%-10s %7.1f%% %10s %10s %10s\n",
			time.Duration(b)*bucket, hr,
			r(sorted.Percentile(50)), r(sorted.Percentile(75)), r(sorted.Percentile(95)))
		if b >= 1 { // skip warm-up
			steadyHits += hit[b]
			steadyTotal += tot
		}
	}
	if steadyTotal > 0 {
		ratio := float64(steadyHits) / float64(steadyTotal) * 100
		fmt.Fprintf(w, "steady-state hit ratio: %.1f%% (paper: 77.6%%)\n", ratio)
		res.Metrics["steady_hit_pct"] = ratio
	}
	var all stats.Durations
	for b := 1; b < nBuckets; b++ {
		all = append(all, delays[b]...)
	}
	allSorted := all.Sorted()
	res.Metrics["p75_ms"] = float64(allSorted.Percentile(75).Milliseconds())
	res.Metrics["p95_ms"] = float64(allSorted.Percentile(95).Milliseconds())
	return res, nil
}
