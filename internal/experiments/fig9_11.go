package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/simbed"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/workload"
)

func init() {
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
}

// fig9 reproduces Fig. 9: Pastry delay CDFs on PlanetLab, ModelNet and a
// mixed deployment spanning both (500 nodes on each side).
func fig9(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig9")
	n := opt.n(1000, 100)
	lookups := opt.n(4000, 400)

	plCfg := topology.DefaultPlanetLab(n)
	plCfg.Seed = opt.Seed

	run := func(label string, model simnet.LinkModel, proc simnet.ProcDelayFunc) (time.Duration, error) {
		delays, err := pastryRing(oneBed(model, n, opt.Seed, proc), lookups, opt.Seed, 30*time.Second)
		if err != nil {
			return 0, err
		}
		printCDF(w, label, delays, 10)
		return delays.Percentile(50), nil
	}

	fmt.Fprintf(w, "# Fig. 9 — Pastry on PlanetLab, ModelNet and mixed (%d nodes)\n", n)
	pl := topology.NewPlanetLab(plCfg)
	plMed, err := run("planetlab", pl, pl.ProcDelay)
	if err != nil {
		return nil, err
	}
	mn := topology.NewModelNet(topology.DefaultModelNet(n))
	mnMed, err := run("modelnet", mn, nil)
	if err != nil {
		return nil, err
	}
	plHalf := topology.NewPlanetLab(topology.PlanetLabConfig{Hosts: n / 2, Seed: opt.Seed, LossProb: 0.005})
	mnHalf := topology.NewModelNet(topology.DefaultModelNet(n - n/2))
	mixed := topology.NewMixed(plHalf, mnHalf, n/2, 60*time.Millisecond)
	mixProc := func(host, size int) time.Duration {
		if host < n/2 {
			return plHalf.ProcDelay(host, size)
		}
		return 0
	}
	mixMed, err := run("mixed", mixed, mixProc)
	if err != nil {
		return nil, err
	}

	res.Metrics["planetlab_median_ms"] = float64(plMed.Milliseconds())
	res.Metrics["modelnet_median_ms"] = float64(mnMed.Milliseconds())
	res.Metrics["mixed_median_ms"] = float64(mixMed.Milliseconds())
	return res, nil
}

// churnedPastry hosts a Pastry deployment whose membership the churn
// manager drives: slots map to sim hosts; stopped slots take their host
// down, started slots join through the protocol.
type churnedPastry struct {
	bed   *simbed.Bed
	cfg   pastry.Config
	seed  int64
	rng   *rand.Rand
	nodes []*pastry.Node
	ctxs  []*core.AppContext
	alive []int
}

func newChurnedPastry(model simnet.LinkModel, slots int, cfg pastry.Config,
	seed int64, proc simnet.ProcDelayFunc) *churnedPastry {
	return &churnedPastry{
		bed:   oneBed(model, slots, seed, proc),
		cfg:   cfg,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make([]*pastry.Node, slots),
		ctxs:  make([]*core.AppContext, slots),
	}
}

func (cp *churnedPastry) newNode(slot int) *pastry.Node {
	ctx := cp.bed.Context(slot, 9000)
	cfg := cp.cfg
	id := pastry.ID(cp.rng.Uint64())
	cfg.ID = &id
	n := pastry.New(ctx, cfg)
	cp.nodes[slot] = n
	cp.ctxs[slot] = ctx
	return n
}

// bootstrap statically builds the initial population and starts
// maintenance everywhere.
func (cp *churnedPastry) bootstrap(initial []int) error {
	var ns []*pastry.Node
	for _, slot := range initial {
		ns = append(ns, cp.newNode(slot))
		cp.alive = append(cp.alive, slot)
	}
	if err := cp.bed.StartAll(initial, func(slot int) error { return cp.nodes[slot].Start() }); err != nil {
		return err
	}
	if err := pastry.BuildNetwork(ns, pastry.BuildOptions{Seed: cp.seed}); err != nil {
		return err
	}
	cp.bed.K.Go(func() {
		for _, n := range ns {
			n.StartMaintenance()
		}
	})
	return nil
}

// StartNode implements churn.NodeControl: bring the slot up and join via
// a random live seed.
func (cp *churnedPastry) StartNode(slot int) {
	cp.bed.Net.Host(slot).SetDown(false)
	n := cp.newNode(slot)
	if err := n.Start(); err != nil {
		return
	}
	if len(cp.alive) > 0 {
		seed := cp.nodes[cp.alive[cp.rng.Intn(len(cp.alive))]]
		n.Join(seed.Self().Addr) //nolint:errcheck // churned joins may race failures
	}
	n.StartMaintenance()
	cp.alive = append(cp.alive, slot)
}

// StopNode implements churn.NodeControl. The host goes down before the
// context is killed so that, in silent-failure mode, peers observe no
// clean shutdown (no EOFs) — only timeouts.
func (cp *churnedPastry) StopNode(slot int) {
	cp.bed.Net.Host(slot).SetDown(true)
	if cp.ctxs[slot] != nil {
		cp.ctxs[slot].Kill()
	}
	for i, s := range cp.alive {
		if s == slot {
			cp.alive = append(cp.alive[:i], cp.alive[i+1:]...)
			break
		}
	}
}

// liveNodes snapshots the live node set.
func (cp *churnedPastry) liveNodes() []*pastry.Node {
	out := make([]*pastry.Node, 0, len(cp.alive))
	for _, slot := range cp.alive {
		out = append(out, cp.nodes[slot])
	}
	return out
}

// sample issues one lookup from a random live node and classifies it.
func (cp *churnedPastry) sample() (ok bool, delay time.Duration, idle bool) {
	if len(cp.alive) < 2 {
		return false, 0, true
	}
	src := cp.nodes[cp.alive[cp.rng.Intn(len(cp.alive))]]
	key := pastry.ID(cp.rng.Uint64())
	res, err := src.Route(key)
	if err != nil {
		return false, 0, false
	}
	want := pastry.OwnerOf(cp.liveNodes(), key)
	if res.Root.Addr != want.Addr {
		return false, res.RTT, false
	}
	return true, res.RTT, false
}

// churnSeries runs periodic lookup sampling and aggregates per-bucket
// delays and failure rates.
type churnSeries struct {
	bucket   time.Duration
	delays   []stats.Durations
	ok, fail []int
}

func sampleLoop(cp *churnedPastry, every, duration, bucket time.Duration, perTick int) *churnSeries {
	cs := &churnSeries{bucket: bucket}
	nBuckets := int(duration/bucket) + 1
	cs.delays = make([]stats.Durations, nBuckets)
	cs.ok = make([]int, nBuckets)
	cs.fail = make([]int, nBuckets)
	ticks := int(duration / every)
	for t := 0; t < ticks; t++ {
		at := time.Duration(t) * every
		cp.bed.K.GoAfter(at, func() {
			for i := 0; i < perTick; i++ {
				start := cp.bed.K.Since()
				ok, delay, idle := cp.sample()
				if idle {
					return
				}
				b := int(start / bucket)
				if b >= nBuckets {
					b = nBuckets - 1
				}
				if ok {
					cs.ok[b]++
					cs.delays[b] = append(cs.delays[b], delay)
				} else {
					cs.fail[b]++
				}
			}
		})
	}
	return cs
}

// fig10 reproduces Fig. 10: a 1,500-node Pastry overlay on the local
// cluster loses half its nodes at t = 5 min; route failures spike toward
// 50% and recover within about five minutes as repair converges.
func fig10(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig10")
	n := opt.n(1500, 120)

	cfg := pastry.DefaultConfig()
	cfg.RPCTimeout = 3 * time.Second
	cfg.MaintainEvery = 10 * time.Second
	cp := newChurnedPastry(simnet.Symmetric{RTT: 2 * time.Millisecond, Bps: 125e6}, n, cfg, opt.Seed, nil)
	// The massive failure models a severed inter-continental link: dead
	// nodes blackhole traffic, so detection costs full RPC timeouts.
	cp.bed.Net.SetSilentFailures(true)
	if err := cp.bootstrap(upTo(n)); err != nil {
		return nil, err
	}

	const duration = 10 * time.Minute
	series := sampleLoop(cp, time.Second, duration, 30*time.Second, opt.n(20, 4))

	// Massive failure at t = 5 min: half the network disappears.
	cp.bed.K.GoAfter(5*time.Minute, func() {
		perm := cp.rng.Perm(len(cp.alive))
		var victims []int
		for _, i := range perm[:len(cp.alive)/2] {
			victims = append(victims, cp.alive[i])
		}
		for _, slot := range victims {
			cp.StopNode(slot)
		}
	})
	cp.bed.K.RunFor(duration + time.Minute)

	fmt.Fprintf(w, "# Fig. 10 — massive failure: %d nodes, 50%% fail at 5m\n", n)
	fmt.Fprintf(w, "%-8s %8s %8s %10s %10s\n", "t", "ok", "fail", "fail%", "p50")
	var failBefore, failAfter, failEnd float64
	for b := range series.ok {
		tot := series.ok[b] + series.fail[b]
		if tot == 0 {
			continue
		}
		failPct := float64(series.fail[b]) / float64(tot) * 100
		med := series.delays[b].Percentile(50)
		fmt.Fprintf(w, "%-8s %8d %8d %9.1f%% %10s\n",
			time.Duration(b)*30*time.Second, series.ok[b], series.fail[b], failPct, r(med))
		switch {
		case b == 9: // just before the failure
			failBefore = failPct
		case b == 10 || b == 11: // right after
			if failPct > failAfter {
				failAfter = failPct
			}
		case b >= 19: // end of run
			failEnd = failPct
		}
	}
	res.Metrics["fail_pct_before"] = failBefore
	res.Metrics["fail_pct_peak"] = failAfter
	res.Metrics["fail_pct_end"] = failEnd
	return res, nil
}

// fig11 reproduces Fig. 11: Pastry on PlanetLab under the Overnet
// availability trace sped up 2×, 5× and 10×.
func fig11(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("fig11")
	target := opt.n(620, 80)

	ocfg := workload.DefaultOvernet()
	ocfg.Nodes = target
	ocfg.Seed = opt.Seed
	if opt.Scale < 1 {
		ocfg.Duration = time.Duration(float64(ocfg.Duration) * opt.Scale * 2)
		if ocfg.Duration < 10*time.Minute {
			ocfg.Duration = 10 * time.Minute
		}
	}
	base := workload.OvernetTrace(ocfg)

	for _, speed := range []float64{2, 5, 10} {
		tr := base.SpeedUp(speed)
		slots := tr.MaxSlot() + 1
		duration := tr.Duration() + time.Minute

		plCfg := topology.DefaultPlanetLab(slots)
		plCfg.Seed = opt.Seed
		pl := topology.NewPlanetLab(plCfg)

		cfg := pastry.DefaultConfig()
		cfg.RPCTimeout = 5 * time.Second
		cfg.MaintainEvery = 10 * time.Second
		cp := newChurnedPastry(pl, slots, cfg, opt.Seed, pl.ProcDelay)

		// Nodes already up at t≈0 bootstrap statically; later events are
		// replayed through the protocol.
		var initial []int
		var replay churn.Trace
		for _, e := range tr {
			if e.Action == churn.Join && e.At < time.Second {
				initial = append(initial, e.Node)
			} else {
				replay = append(replay, e)
			}
		}
		if err := cp.bootstrap(initial); err != nil {
			return nil, err
		}
		ex := churn.NewExecutor(cp.bed.Runtime(0), replay, cp)
		cp.bed.K.Go(ex.Run)

		series := sampleLoop(cp, 2*time.Second, duration, time.Minute, opt.n(10, 3))
		cp.bed.K.RunFor(duration + time.Minute)

		pop, joins, leaves := tr.Population(time.Minute)
		fmt.Fprintf(w, "# Fig. 11 — Overnet churn ×%.0f (%d slots)\n", speed, slots)
		fmt.Fprintf(w, "%-8s %6s %6s %6s %8s %10s %10s\n",
			"minute", "pop", "join", "leave", "fail%", "p50", "p90")
		totOK, totFail := 0, 0
		for b := range series.ok {
			tot := series.ok[b] + series.fail[b]
			if tot == 0 {
				continue
			}
			totOK += series.ok[b]
			totFail += series.fail[b]
			p, j, l := 0, 0, 0
			if b < len(pop) {
				p, j, l = pop[b], joins[b], leaves[b]
			}
			sorted := series.delays[b].Sorted() // one sort, two percentiles
			fmt.Fprintf(w, "%-8d %6d %6d %6d %7.1f%% %10s %10s\n",
				b, p, j, l,
				float64(series.fail[b])/float64(tot)*100,
				r(sorted.Percentile(50)), r(sorted.Percentile(90)))
		}
		failRate := float64(totFail) / float64(totOK+totFail) * 100
		fmt.Fprintf(w, "overall failure rate ×%.0f: %.2f%%\n", speed, failRate)
		res.Metrics[fmt.Sprintf("fail_pct_x%.0f", speed)] = failRate
	}
	return res, nil
}
