package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/rpc"
)

func init() {
	register("obsplane", obsplane)
}

// Observability-plane experiment parameters.
const (
	obsKey         = "obs" // stream authentication key
	obsAggPort     = 7000
	obsReportEvery = 5 * time.Second  // per-node delta report period
	obsWatchEvery  = 15 * time.Second // in-flight view cadence
	obsSpread      = 45 * time.Second // lookup start stagger: spans the watch window
	obsLookups     = 2                // lookups per node
	obsBits        = 40               // ring bits: collision-safe at 5,000 ids
)

// obsplane measures the observability plane itself at control-plane
// scale, ACME-style: a scenario deploys an *instrumented* Chord onto 60%
// of a 5,000-daemon simulated PlanetLab testbed. Every deployed instance
// carries a metrics registry (chord route/latency instruments plus the
// RPC message-plane set), and streams batched delta reports to the
// scenario's aggregator on a dedicated monitoring host — the
// controller's own host is blacklisted for applications, so the plane
// gets a sibling service exactly like ACME's separation of control and
// sensing. The controller reports its own instruments (deploy latency,
// frame load, fleet-wide daemon accounting) over the same wire.
//
// While lookups run, the experiment prints the aggregator's merged
// view at a fixed cadence — the §3.4 "observe a live system" facility
// the log collector cannot provide — and closes with the monitoring
// bill: report frames and bytes per node per second, and monitoring's
// share of all application traffic on the network.
func obsplane(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("obsplane")
	n := opt.n(5000, 250)
	nodes := n * 3 / 5
	run, err := runObsplane(w, n, nodes, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("obsplane %d daemons: %w", n, err)
	}

	fmt.Fprintf(w, "# summary\n")
	fmt.Fprintf(w, "%-26s %12.0f\n", "lookups", run.lookups)
	fmt.Fprintf(w, "%-26s %12.2f\n", "mean hops", run.meanHops)
	fmt.Fprintf(w, "%-26s %12s\n", "lookup p50 (bucketed)", r(time.Duration(run.p50ns)))
	fmt.Fprintf(w, "%-26s %12s\n", "lookup p90 (bucketed)", r(time.Duration(run.p90ns)))
	fmt.Fprintf(w, "%-26s %12.0f\n", "rpc calls", run.rpcCalls)
	fmt.Fprintf(w, "%-26s %12.3f\n", "report frames/node/s", run.framesPerNodeSec)
	fmt.Fprintf(w, "%-26s %12.1f\n", "report bytes/node/s", run.bytesPerNodeSec)
	fmt.Fprintf(w, "%-26s %12.4f\n", "monitoring byte share", run.byteShare)

	res.Metrics["daemons"] = float64(n)
	res.Metrics["nodes"] = float64(nodes)
	res.Metrics["lookups"] = run.lookups
	res.Metrics["failed_lookups"] = run.failed
	res.Metrics["mean_hops"] = run.meanHops
	res.Metrics["hops_p99"] = run.hopsP99
	res.Metrics["lat_p50_ms"] = float64(run.p50ns) / 1e6
	res.Metrics["lat_p90_ms"] = float64(run.p90ns) / 1e6
	res.Metrics["rpc_calls"] = run.rpcCalls
	res.Metrics["frames_per_node_s"] = run.framesPerNodeSec
	res.Metrics["bytes_per_node_s"] = run.bytesPerNodeSec
	res.Metrics["monitor_byte_share"] = run.byteShare
	res.Metrics["jobs_started"] = run.jobsStarted
	res.Metrics["ctl_frames_per_daemon"] = run.ctlFramesPerDaemon
	return res, nil
}

// observedRing is the instrumented-Chord deployment the observability and
// fault planes share: it starts sc with one app, name, on nodes daemons —
// each instance a Chord node configured by cfg whose chord and RPC
// instruments live in its Env's registry and stream to the scenario's
// aggregator — waits for the job to run, and converges the ring statically.
// The caller owns the returned session and must Stop it.
func observedRing(sc splay.Scenario, name string, nodes int, cfg chord.Config) (*splay.Session, []*chord.Node, error) {
	var ring []*chord.Node
	sc.Apps = []splay.AppSpec{{
		Name:  name,
		Nodes: nodes,
		App: splay.AppFunc(func(env *splay.Env) error {
			node, err := chord.New(env.AppContext(), cfg)
			if err != nil {
				return err
			}
			mreg := env.Metrics()
			node.SetInstruments(chord.NewInstruments(mreg))
			node.SetRPCInstruments(rpc.NewInstruments(mreg))
			if err := node.Start(); err != nil {
				return err
			}
			if err := env.StartReporting(); err != nil {
				return err
			}
			ring = append(ring, node)
			return nil
		}),
	}}
	sess, err := sc.Start(context.Background())
	if err != nil {
		return nil, nil, err
	}
	job, err := sess.Deploy(sc.Apps[0]).Wait()
	if err == nil && (job.State != splay.JobRunning || len(ring) != nodes) {
		err = fmt.Errorf("deployed %d instances (state %s), want %d running", len(ring), job.State, nodes)
	}
	if err == nil {
		err = chord.BuildRing(ring, chord.BuildOptions{})
	}
	if err != nil {
		sess.Stop()
		return nil, nil, err
	}
	return sess, ring, nil
}

// obsplaneRun carries one run's aggregated results.
type obsplaneRun struct {
	lookups            float64
	failed             float64
	meanHops           float64
	hopsP99            float64
	p50ns, p90ns       int64
	rpcCalls           float64
	framesPerNodeSec   float64
	bytesPerNodeSec    float64
	byteShare          float64
	jobsStarted        float64
	ctlFramesPerDaemon float64
}

// runObsplane deploys and monitors one population through the scenario
// SDK: Collect.Metrics provisions the monitoring host, the aggregator
// and the controller's self-reporting stream; each instance wires its
// own registry and calls Env.StartReporting.
func runObsplane(w io.Writer, n, nodes int, seed int64) (*obsplaneRun, error) {
	sc := splay.Scenario{
		Seed:            seed,
		Testbed:         splay.PlanetLab(n),
		RegisterTimeout: 60 * time.Second, // PlanetLab tail headroom at 5,000
		Collect: splay.Collect{
			Metrics:     true,
			ReportEvery: obsReportEvery,
			Key:         obsKey,
			MetricsPort: obsAggPort,
		},
	}
	ccfg := chord.DefaultConfig()
	ccfg.Bits = obsBits
	// Converged statically (§5.2's "let the overlay stabilize"); lookups
	// are issued from every node, staggered like fig6.
	sess, chordNodes, err := observedRing(sc, "obschord", nodes, ccfg)
	if err != nil {
		return nil, err
	}
	defer sess.Stop()
	tel := sess.Telemetry()
	watchStart := sess.Now()
	f0, b0 := tel.Received()
	remaining := nodes
	rng := rand.New(rand.NewSource(seed))
	for i := range chordNodes {
		node := chordNodes[i]
		start := time.Duration(rng.Intn(int(obsSpread/time.Millisecond))) * time.Millisecond
		sess.GoAfter(start, func() {
			lrng := rand.New(rand.NewSource(seed + int64(node.Self().ID)))
			for j := 0; j < obsLookups; j++ {
				key := lrng.Uint64() & (1<<obsBits - 1)
				node.Lookup(key) //nolint:errcheck // failures land in the instruments
			}
			remaining--
		})
	}

	// The live query surface: the aggregator's merged view while the
	// experiment converges in flight.
	fmt.Fprintf(w, "%-8s %8s %9s %10s %10s %10s %10s\n",
		"t", "nodes", "lookups", "mean-hops", "p50", "p90", "frames")
	watch := func() {
		count, sum := tel.HistStats("chord.hops")
		mean := 0.0
		if count > 0 {
			mean = float64(sum) / float64(count)
		}
		lat := tel.Series("chord.lookup_latency_ns")
		frames, _ := tel.Received()
		fmt.Fprintf(w, "%-8s %8d %9d %10.2f %10s %10s %10d\n",
			sess.Now().Sub(watchStart).Round(time.Second), tel.Nodes(),
			tel.Counter("chord.lookups"), mean,
			r(lat.Percentile(50)), r(lat.Percentile(90)), frames-f0)
	}
	for t := obsWatchEvery; t <= 4*obsWatchEvery; t += obsWatchEvery {
		sess.RunFor(obsWatchEvery)
		watch()
	}
	for i := 0; i < 30 && remaining > 0; i++ {
		sess.RunFor(10 * time.Second)
	}
	if remaining > 0 {
		return nil, fmt.Errorf("%d lookup drivers still running", remaining)
	}
	// Drain: two report periods so every periodic flush ships its last
	// deltas, then close the books.
	sess.RunFor(2*obsReportEvery + time.Second)
	watch()

	f1, b1 := tel.Received()
	window := sess.Now().Sub(watchStart).Seconds()
	reporting := float64(tel.Nodes()) // chord instances + the controller

	run := &obsplaneRun{}
	run.lookups = float64(tel.Counter("chord.lookups"))
	run.failed = float64(tel.Counter("chord.failed_lookups"))
	count, sum := tel.HistStats("chord.hops")
	if count > 0 {
		run.meanHops = float64(sum) / float64(count)
	}
	run.hopsP99 = float64(tel.Series("chord.hops").Percentile(99))
	lat := tel.Series("chord.lookup_latency_ns")
	run.p50ns = int64(lat.Percentile(50))
	run.p90ns = int64(lat.Percentile(90))
	run.rpcCalls = float64(tel.Counter("rpc.calls"))
	run.framesPerNodeSec = float64(f1-f0) / reporting / window
	run.bytesPerNodeSec = float64(b1-b0) / reporting / window
	if total := sess.NetBytes(); total > 0 {
		run.byteShare = float64(b1) / float64(total)
	}
	run.jobsStarted = float64(tel.Counter("daemon.jobs_started"))
	run.ctlFramesPerDaemon = float64(tel.Counter("ctl.frames")) / float64(n)

	// The plane must have carried every stream and every instrument:
	// all deployed instances plus the controller reported, the fleet
	// accounting matches the deployment, and every lookup was observed.
	if tel.Nodes() != nodes+1 {
		return nil, fmt.Errorf("%d streams reported, want %d", tel.Nodes(), nodes+1)
	}
	if int(run.jobsStarted) != nodes {
		return nil, fmt.Errorf("fleet accounting saw %d jobs, want %d", int(run.jobsStarted), nodes)
	}
	if int(run.lookups) != nodes*obsLookups {
		return nil, fmt.Errorf("aggregated %d lookups, want %d", int(run.lookups), nodes*obsLookups)
	}
	return run, nil
}
