package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/simbed"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/transport"
)

func init() {
	register("lookup100k", lookup100k)
}

// lookup100kParts is the partition count of the sharded kernel. It is part
// of the scenario definition — changing it changes host placement and hence
// the event schedule — while Workers (the thread count) never does.
const lookup100kParts = 8

// chordOpts are chordRing's optional measurement hooks.
type chordOpts struct {
	// oracle makes finger selection latency-aware (fig6c's MIT baseline).
	oracle chord.RTTOracle
	// acct, when non-nil, measures the footprint: the network and protocol
	// layers register their byte sources on it, the kernel samples the heap
	// at every lookahead barrier, and chordRun.footprint reports the live
	// system — taken while every node is still reachable. The accountant
	// only reads memory statistics, so the schedule (and every golden) is
	// identical with or without it.
	acct *memprof.Accountant
}

// chordRing is the one Chord ring driver: it deploys a converged Chord node
// on every host of the bed and issues lookups from random sources. Hosts
// land on the bed's partitions, each partition runs its own sub-kernel, and
// cross-partition RPCs ride the lookahead barriers. On one partition the
// schedule is the plain single-kernel one; on more it is a different — but
// equally deterministic — interleaving, fixed by the partition count and
// independent of the worker count.
func chordRing(bed *simbed.Bed, cfg chord.Config, lookups int, seed int64, opts chordOpts) (*chordRun, error) {
	pk, nw, acct := bed.Par, bed.Net, opts.acct
	n, parts := nw.NumHosts(), pk.Parts()
	rng := stream.Rand(seed, "chordring", 0)

	// Identifiers and addresses are drawn before any node exists — the
	// same rng, the same draw order — so the whole population is known
	// upfront and its intern base can be built once and shared read-only
	// by every partition's routing tables (see chord.Shared).
	seen := make(map[uint64]bool, n)
	ctxs := make([]*core.AppContext, n)
	addrs := make([]transport.Addr, n)
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		ctxs[i] = bed.Context(i, 8000)
		addrs[i] = ctxs[i].Job.Me
		for {
			id := rng.Uint64() & ((1 << cfg.Bits) - 1)
			if !seen[id] {
				seen[id] = true
				ids[i] = id
				break
			}
		}
	}
	base := chord.Population(cfg, addrs, ids)
	shareds := make([]*chord.Shared, parts)
	for p := range shareds {
		shareds[p] = chord.NewShared(base)
	}
	nodes := make([]*chord.Node, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.ID = &ids[i]
		c.Shared = shareds[nw.Host(i).Part()]
		node, err := chord.New(ctxs[i], c)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
	}
	if acct != nil {
		acct.Track("simnet", nw.FootprintBytes)
		acct.Track("chord.ring", func() uint64 {
			b := base.Bytes()
			for _, s := range shareds {
				b += s.Bytes()
			}
			return b
		})
		pk.AddBarrierHook(acct.Observe)
	}
	if err := bed.StartAll(upTo(n), func(i int) error { return nodes[i].Start() }); err != nil {
		return nil, err
	}
	if err := chord.BuildRing(nodes, chord.BuildOptions{Oracle: opts.oracle}); err != nil {
		return nil, err
	}

	// Per-partition collectors: each is touched only by its partition's
	// tasks, then merged in partition order so the aggregate is identical
	// under any worker count.
	runs := make([]*chordRun, parts)
	for p := range runs {
		runs[p] = &chordRun{hops: &stats.IntHistogram{}}
	}
	perNode := lookups / n
	if perNode < 1 {
		perNode = 1
	}
	for i := range nodes {
		node, keys := nodes[i], ctxs[i]
		part := nw.Host(i).Part()
		start := time.Duration(rng.Intn(10000)) * time.Millisecond
		pk.GoAfter(part, start, func() {
			for j := 0; j < perNode; j++ {
				key := keys.Rand().Uint64() & ((1 << cfg.Bits) - 1)
				res, err := node.Lookup(key)
				if err != nil {
					runs[part].fails++
					continue
				}
				runs[part].hops.Add(res.Hops)
				runs[part].delays = append(runs[part].delays, res.RTT)
			}
		})
	}
	pk.Run()

	merged := &chordRun{hops: &stats.IntHistogram{}}
	for _, r := range runs {
		merged.hops.Merge(r.hops)
		merged.delays = append(merged.delays, r.delays...)
		merged.fails += r.fails
		r.hops, r.delays = nil, nil
	}
	if acct != nil {
		// Measure while every node, connection and intern table is still
		// reachable; only the per-run result data has been dropped.
		runs = nil
		merged.footprint = acct.Report(n)
		runtime.KeepAlive(nodes)
		runtime.KeepAlive(nw)
	}
	return merged, nil
}

// shardedChord is the lookup100k shape: a converged Chord ring of n nodes on
// the ModelNet transit-stub model, on a parts-way sharded kernel whose
// partitions follow stub domains. With footprint set, an
// accountant whose baseline predates the substrate measures the run (see
// chordOpts.acct): the memory plane's 10k-node smoke — the denominator
// behind BENCH_mem.json and the ≥3× reduction gate — and lookup1m are this
// same machinery two orders of magnitude apart.
func shardedChord(parts, workers, n, lookups int, seed int64, footprint bool) (*chordRun, error) {
	mn := topology.NewModelNet(topology.DefaultModelNet(n))
	var opts chordOpts
	if footprint {
		opts.acct = memprof.New()
	}
	bed, err := simbed.New(parts, workers, mn, n, seed, nil)
	if err != nil {
		return nil, err
	}
	return chordRing(bed, chord.DefaultConfig(), lookups, seed, opts)
}

// upTo lists hosts 0..n-1, the population every ring driver starts.
func upTo(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return hosts
}

// lookup100k pushes Chord another order of magnitude past lookup10k:
// converged rings of 25,000, 50,000 and 100,000 nodes on the ModelNet
// transit-stub model, one lookup per node, on an 8-way sharded kernel
// whose conservative lookahead is the smallest delay between stub domains.
// The experiment exists to prove the sharded kernel at populations no
// single event loop should own — and to pin, via the golden suite, that
// its results never depend on how many OS threads drive it.
func lookup100k(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("lookup100k")
	fmt.Fprintf(w, "# lookup100k — Chord at 100k hosts (%d-way sharded kernel)\n", lookup100kParts)
	fmt.Fprintf(w, "%-8s %9s %9s %9s %9s %9s %7s\n",
		"nodes", "p5", "p50", "p90", "mean-hops", "bound", "fails")
	for _, full := range []int{25000, 50000, 100000} {
		n := opt.n(full, 96)
		run, err := shardedChord(lookup100kParts, opt.Workers, n, opt.n(full, n), opt.Seed, false)
		if err != nil {
			return nil, fmt.Errorf("lookup100k %d nodes: %w", n, err)
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
