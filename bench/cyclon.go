package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/cyclon"
	"github.com/splaykit/splay/internal/rpc"
)

// cyclon_churn sizes (scale 1).
const (
	cyclonNodes     = 600
	cyclonRamp      = 1 * time.Minute  // population grows 0 → cyclonNodes
	cyclonSettle    = 30 * time.Second // quiet minute before the churned window
	cyclonChurnPerM = 25               // % of the population replaced per churned minute
	cyclonShuffle   = 2 * time.Second
	cyclonTimeout   = 5 * time.Second
	cyclonBootstrap = 5 // random live peers a joining node starts from
)

//go:embed workloads/cyclon_churn.script
var cyclonChurnScript string

// cyclonScript renders the churn description for a window.
func cyclonScript(nodes int, window time.Duration) string {
	from := cyclonRamp + cyclonSettle
	pct := int(float64(cyclonChurnPerM)*window.Minutes() + 0.5)
	return strings.NewReplacer(
		"{{NODES}}", strconv.Itoa(nodes),
		"{{RAMP}}", cyclonRamp.String(),
		"{{FROM}}", from.String(),
		"{{TO}}", (from + window).String(),
		"{{CHURN}}", strconv.Itoa(pct),
	).Replace(cyclonChurnScript)
}

// cyclonApp is the bench-defined "benchcyclon" application: a Cyclon
// node bootstrapped from random live peers (a churned-in instance has no
// rendez-vous list), plus the consumer a membership service exists for —
// once per shuffle period it pings one peer sampled from its view. The
// ping's round trip on the virtual clock is the workload's operation
// latency; pings that hit a departed peer measure how stale views are.
// The churn path runs on one kernel partition, so plain fields suffice.
type cyclonApp struct {
	rng   *rand.Rand
	live  []*cyclonPeer // running instances, in join order
	gone  uint64        // shuffles completed by instances since killed
	inWin bool          // inside the measurement window

	starts, kills    int64
	pingOK, pingDead int64
	pingLat          []time.Duration
}

type cyclonPeer struct {
	addr splay.Addr
	node *cyclon.Node
}

// shuffles is every shuffle completed so far, by live and dead nodes.
func (a *cyclonApp) shuffles() uint64 {
	n := a.gone
	for _, p := range a.live {
		n += p.node.Shuffles
	}
	return n
}

func (a *cyclonApp) Run(env *splay.Env) error {
	ctx := env.AppContext()
	me := &cyclonPeer{addr: ctx.Job.Me}
	me.node = cyclon.New(ctx, cyclon.Config{
		ViewSize: 20, ShuffleLen: 8, ShuffleEvery: cyclonShuffle, RPCTimeout: cyclonTimeout,
	})
	var boot []splay.Addr
	for _, i := range a.rng.Perm(len(a.live)) {
		if len(boot) == cyclonBootstrap {
			break
		}
		boot = append(boot, a.live[i].addr)
	}
	if err := me.node.Start(boot); err != nil {
		return err
	}
	a.live = append(a.live, me)
	a.starts++
	env.OnKill(func() {
		for i, p := range a.live {
			if p == me {
				a.live = append(a.live[:i], a.live[i+1:]...)
				break
			}
		}
		a.gone += me.node.Shuffles
		a.kills++
	})

	client := rpc.NewClient(ctx)
	ctx.Periodic(cyclonShuffle, func() {
		view := me.node.View()
		if len(view) == 0 {
			return
		}
		rtt, err := client.Ping(view[ctx.Rand().Intn(len(view))].Addr, cyclonTimeout)
		switch {
		case !a.inWin:
		case err != nil:
			a.pingDead++
		default:
			a.pingOK++
			a.pingLat = append(a.pingLat, rtt)
		}
	})
	env.RunUntilKilled()
	me.node.Stop()
	return nil
}

// runCyclonChurn takes the separate churn start path: no controller, the
// trace is the deployment — instance start/kill, hosts going down and
// coming back, RPC redial and teardown toward dead peers, list-shaped
// payloads.
func runCyclonChurn(rc *runCtx, w *workload) (*outcome, error) {
	nodes := rc.scaled(cyclonNodes, 24)
	nSlices := w.slices(rc.seconds)
	windowSim := time.Duration(nSlices) * w.sliceSim

	churn, err := splay.ChurnScript(cyclonScript(nodes, windowSim), rc.seed)
	if err != nil {
		return nil, err
	}
	app := &cyclonApp{rng: rand.New(rand.NewSource(rc.seed))}
	sc := splay.Scenario{
		Name:    w.name,
		Seed:    rc.seed,
		Testbed: splay.PlanetLab(0),
		Churn:   churn,
		Apps:    []splay.AppSpec{{Name: "benchcyclon", App: app}},
	}
	out := &outcome{counts: map[string]float64{}, spans: map[string]float64{}}
	t0 := time.Now()
	end := rc.tr.begin("splay.start")
	sess, err := sc.Start(context.Background())
	end()
	if err != nil {
		return nil, err
	}
	defer func() {
		end := rc.tr.begin("splay.stop")
		sess.Stop()
		end()
	}()
	end = rc.tr.begin("splay.converge")
	sess.RunFor(cyclonRamp + cyclonSettle)
	end()
	out.setup = time.Since(t0)
	if got := sess.Daemons(); got != nodes {
		return nil, fmt.Errorf("%s: %d nodes alive after the ramp, want %d", w.name, got, nodes)
	}
	if rc.setupOnly {
		return out, nil
	}

	startsBefore, killsBefore := app.starts, app.kills
	done := app.shuffles()
	app.inWin = true
	out.slices, out.mallocs, err = rc.window(nSlices, w.sliceSim, func(int) int64 {
		sess.RunFor(w.sliceSim)
		now := app.shuffles()
		ops := int64(now - done)
		done = now
		return ops
	})
	app.inWin = false
	if err != nil {
		return nil, err
	}
	out.heapMB = heapMB()

	// A shuffle toward a peer that has just left is dropped by design
	// (Cyclon forgets the peer); it is not a failed operation. What must
	// hold is that the population followed the trace and gossip kept up.
	out.attempted = out.ops()
	out.opSimMS = durationsMS(app.pingLat)
	starts, kills := app.starts-startsBefore, app.kills-killsBefore
	if got, want := sess.Daemons(), nodes; got != want || len(app.live) != want {
		out.failf("%d slots alive (%d instances running) at window end, the trace says %d", got, len(app.live), want)
	}
	if starts != kills || starts == 0 {
		out.failf("window saw %d starts and %d kills, want equal and non-zero", starts, kills)
	}
	// Every live node initiates one shuffle per period; one aimed at a
	// departed peer does not complete, so allow for the turnover.
	if ideal := float64(nodes) * windowSim.Seconds() / cyclonShuffle.Seconds(); float64(out.attempted) < 0.8*ideal {
		out.failf("%d shuffles completed, under 80%% of the %.0f initiated", out.attempted, ideal)
	}
	if app.pingOK == 0 {
		out.failf("no sampled-peer ping succeeded")
	}
	var latSum time.Duration
	for _, d := range app.pingLat {
		latSum += d
	}
	out.counts["cyclon.shuffles"] = float64(out.attempted)
	out.counts["churn.starts"] = float64(starts)
	out.counts["churn.kills"] = float64(kills)
	out.counts["cyclon.pings"] = float64(app.pingOK + app.pingDead)
	out.counts["cyclon.pings_stale"] = float64(app.pingDead)
	out.digest = digest(w.name, out.attempted, starts, kills, app.pingOK, app.pingDead, int64(latSum))
	return out, nil
}
