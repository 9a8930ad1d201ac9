package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
)

func init() {
	register("faultplane", faultplane)
}

// Fault-plane experiment parameters.
const (
	fpKey         = "faults"          // stream authentication key
	fpReportEvery = 5 * time.Second   // per-node delta report period
	fpBits        = 40                // ring bits: collision-safe
	fpLookupEvery = 10 * time.Second  // per-node lookup period
	fpRounds      = 24                // lookups per node (240 s workload)
	fpPartitionAt = 60 * time.Second  // cut time on the plan's clock
	fpRPCTimeout  = 3 * time.Second   // fast suspicion under partition
	fpWatchEvery  = 15 * time.Second  // progress rows
	fpWindow      = 300 * time.Second // sampled run window after arming
)

// faultplane is the fault plane's end-to-end demonstration: a fault-
// tolerant Chord ring deployed on a simulated ModelNet testbed is cut in
// half by a declared partition while every node issues periodic lookups.
// A closed-loop trigger rule watches the aggregated failed-lookup rate
// and heals the partition once failures sustain — the control loop runs
// over the same REGISTER/LIST/START machinery and telemetry plane every
// other experiment uses. Assertions turn the run into a pass/fail gate:
// the partition must bite (failures observed) and lookups must
// reconverge (the failure rate must return under threshold and stay
// there through the end of the run).
//
// The experiment reports the closed-loop timeline: when the rule fired,
// when the last failure was observed, and the reconvergence lag between
// the two.
func faultplane(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("faultplane")
	daemons := opt.n(2500, 125)
	nodes := daemons * 4 / 5
	run, err := runFaultplane(w, daemons, nodes, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("faultplane %d daemons: %w", daemons, err)
	}

	fmt.Fprintf(w, "# summary\n")
	fmt.Fprintf(w, "%-26s %12.0f\n", "lookups", run.lookups)
	fmt.Fprintf(w, "%-26s %12.0f\n", "failed lookups", run.failed)
	fmt.Fprintf(w, "%-26s %12.1fs\n", "heal fired at", run.healS)
	fmt.Fprintf(w, "%-26s %12.1fs\n", "last failure seen at", run.lastFailS)
	fmt.Fprintf(w, "%-26s %12.1fs\n", "reconvergence lag", run.reconvergeS)

	res.Metrics["daemons"] = float64(daemons)
	res.Metrics["nodes"] = float64(nodes)
	res.Metrics["lookups"] = run.lookups
	res.Metrics["failed_lookups"] = run.failed
	res.Metrics["retries"] = run.retries
	res.Metrics["heal_fires"] = run.healFires
	res.Metrics["heal_s"] = run.healS
	res.Metrics["last_failure_s"] = run.lastFailS
	res.Metrics["reconverge_s"] = run.reconvergeS
	return res, nil
}

// faultplaneRun carries one run's closed-loop timeline.
type faultplaneRun struct {
	lookups     float64
	failed      float64
	retries     float64
	healFires   float64
	healS       float64
	lastFailS   float64
	reconvergeS float64
}

// runFaultplane provisions, deploys, arms the plan and drives the
// workload. Everything rides the scenario SDK: the plan and assertions
// are declared on the Scenario; the experiment only supplies the
// workload and reads the outcome.
func runFaultplane(w io.Writer, daemons, nodes int, seed int64) (*faultplaneRun, error) {
	sc := splay.Scenario{
		Name:            "faultplane",
		Seed:            seed,
		Testbed:         splay.ModelNet(daemons),
		RegisterTimeout: 60 * time.Second,
		Collect: splay.Collect{
			Metrics:     true,
			ReportEvery: fpReportEvery,
			Key:         fpKey,
		},
		Faults: splay.FaultPlan{
			Events: []splay.FaultEvent{
				splay.PartitionAt(fpPartitionAt, 0.5),
			},
			// Heal once the partition has demonstrably bitten: ten
			// observed failures, sustained two ticks. The trigger watches
			// the monotonic total, not the instantaneous rate — fault-
			// tolerant Chord reroutes around the cut within seconds, so
			// the rate spikes and collapses while the total holds.
			Rules: []splay.TriggerRule{{
				Name: "heal-on-failures",
				When: splay.Metric("chord.failed_lookups", splay.StatTotal, splay.Above, 10),
				For:  10 * time.Second,
				Do:   splay.TriggerAction{Kind: splay.ActHeal},
			}},
			EvalEvery: 5 * time.Second,
		},
		Assert: []splay.Assertion{
			splay.EventuallyHolds("partition-bites",
				splay.Metric("chord.failed_lookups", splay.StatTotal, splay.Above, 0), 0),
			splay.ConvergesWithin("lookups-reconverge",
				splay.Metric("chord.failed_lookups", splay.StatRate, splay.Below, 0.5), 0),
		},
	}
	ccfg := chord.FaultTolerantConfig()
	ccfg.Bits = fpBits
	ccfg.RPCTimeout = fpRPCTimeout
	// The ring is converged statically; then the periodic lookup workload
	// starts (staggered so the aggregated rate is continuous) and the plan
	// is armed: +0 on the plan's clock is "ring up, workload running".
	sess, chordNodes, err := observedRing(sc, "ftchord", nodes, ccfg)
	if err != nil {
		return nil, err
	}
	defer sess.Stop()
	tel := sess.Telemetry()
	remaining := nodes
	rng := rand.New(rand.NewSource(seed))
	for i := range chordNodes {
		node := chordNodes[i]
		start := time.Duration(rng.Intn(int(fpLookupEvery/time.Millisecond))) * time.Millisecond
		sess.GoAfter(start, func() {
			lrng := rand.New(rand.NewSource(seed + int64(node.Self().ID)))
			for j := 0; j < fpRounds; j++ {
				key := lrng.Uint64() & (1<<fpBits - 1)
				node.Lookup(key) //nolint:errcheck // failures land in the instruments
				sess.Sleep(fpLookupEvery)
			}
			remaining--
		})
	}
	armAt := sess.Now()
	if err := sess.ArmFaults(); err != nil {
		return nil, err
	}

	// Sample the closed loop: the aggregated failure counter's last
	// increase is the observable end of the disruption (cut-side nodes
	// deliver their partition-era deltas only after the heal reopens
	// their report streams).
	fmt.Fprintf(w, "%-8s %8s %9s %9s %9s\n", "t", "nodes", "lookups", "failed", "healed")
	var lastFail, prevFailed uint64
	lastFailAt := time.Duration(0)
	for t := fpReportEvery; t <= fpWindow; t += fpReportEvery {
		sess.RunFor(fpReportEvery)
		if f := tel.Counter("chord.failed_lookups"); f > prevFailed {
			prevFailed = f
			lastFail = f
			lastFailAt = sess.Now().Sub(armAt)
		}
		if t%fpWatchEvery == 0 {
			healed := 0
			if len(sess.Firings()) > 0 {
				healed = 1
			}
			fmt.Fprintf(w, "%-8s %8d %9d %9d %9d\n",
				sess.Now().Sub(armAt).Round(time.Second), tel.Nodes(),
				tel.Counter("chord.lookups"), tel.Counter("chord.failed_lookups"), healed)
		}
	}
	for i := 0; i < 30 && remaining > 0; i++ {
		sess.RunFor(10 * time.Second)
	}
	if remaining > 0 {
		return nil, fmt.Errorf("%d lookup drivers still running", remaining)
	}
	// Drain the report pipeline, then close the books: the final
	// assertion evaluation happens inside CheckAssertions.
	sess.RunFor(2*fpReportEvery + time.Second)

	fires := sess.Firings()
	if len(fires) != 1 {
		return nil, fmt.Errorf("heal rule fired %d times, want exactly once", len(fires))
	}
	healAt := fires[0].At.Sub(armAt)
	if healAt <= fpPartitionAt {
		return nil, fmt.Errorf("heal fired at +%s, before the partition at +%s", healAt, fpPartitionAt)
	}
	if err := sess.CheckAssertions(); err != nil {
		return nil, err
	}
	if lastFail == 0 {
		return nil, fmt.Errorf("partition caused no observed lookup failures")
	}
	if tel.Nodes() != nodes+1 {
		return nil, fmt.Errorf("%d streams reporting after the heal, want %d", tel.Nodes(), nodes+1)
	}

	run := &faultplaneRun{}
	run.lookups = float64(tel.Counter("chord.lookups"))
	run.failed = float64(tel.Counter("chord.failed_lookups"))
	run.retries = float64(tel.Counter("chord.retries"))
	run.healFires = float64(len(fires))
	run.healS = healAt.Seconds()
	run.lastFailS = lastFailAt.Seconds()
	run.reconvergeS = (lastFailAt - healAt).Seconds()
	return run, nil
}
