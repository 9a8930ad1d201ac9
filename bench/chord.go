package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/rpc"
)

// Chord workload sizes (scale 1).
const (
	// chordHosts daemons plus the controller make 2,048 hosts, the
	// population at which a plain scenario provisions two kernel
	// partitions (autoParts) — chord_plain runs on two threads,
	// chord_observed's metrics/fault/assert planes force one.
	chordHosts = 2047
	chordNodes = 300
	chordBits  = 32 // collision-safe ring at this population
	// Join schedule. Base Chord's stabilize walks a successor pointer back
	// one node per round, so an arc that takes in joins faster than that
	// keeps a growing overshoot — with n nodes joined, one spanning more
	// than n/(joins per round) of them (README.md, "Guard rails"). The
	// first chordCore nodes therefore join one per round, which no arc can
	// outrun; on that tight core the rest join chordStagger apart, the
	// chord built-in's spacing, where an overshoot would have to span a
	// fifth of the ring before it grew.
	chordRound     = 5 * time.Second // chord.DefaultConfig().StabilizeEvery
	chordCore      = 50
	chordStagger   = time.Second
	chordDeploy    = 30 * time.Second       // allowance for REGISTER/LIST/START
	chordConverge  = 3 * time.Minute        // stabilization after the last join: one pass over the fingers
	chordMaxRounds = 360                    // extra rounds set-up grants a ring that is not right yet (30 simulated minutes)
	chordWarm      = 10 * time.Second       // lookups run this long before the window
	chordPerMin    = 30                     // lookups per minute per node
	chordDegrade   = 40 * time.Millisecond  // chord_observed: extra one-way latency
	chordSlowP90   = 300 * time.Millisecond // chord_observed: heal when p90 exceeds this
	chordSlowFor   = 10 * time.Second
	chordReportGap = 5 * time.Second
)

// chordApp is the bench-defined "benchchord" application. It mirrors the
// chord built-in step for step — New, Start, staggered Join,
// StartMaintenance, a periodic lookup — and adds what a benchmark needs:
// seed-derived ring identifiers and keys, a lookup phase that starts at
// a fixed virtual instant, atomic outcome counters (chord_plain runs its
// nodes on two threads) and the *chord.Node handles for Stats().
type chordApp struct {
	seed        int64
	observed    bool
	ring        []uint64 // every node's identifier, ascending: the lookup oracle
	lookupsFrom time.Time

	nodes []*chord.Node     // by position-1; each slot written by its own instance
	lat   [][]time.Duration // in-window lookup latencies, one slice per node
	hops  atomic.Int64
	ok    atomic.Int64
	bad   atomic.Int64 // lookup errors plus answers the oracle rejects
	live  atomic.Bool  // inside the measurement window
}

func chordID(seed int64, position int) uint64 {
	return rand.New(rand.NewSource(seed*7919+int64(position))).Uint64() & (1<<chordBits - 1)
}

// chordJoinAt is how long after its start the instance at position
// (1-based) joins the ring.
func chordJoinAt(position int) time.Duration {
	if position <= chordCore {
		return time.Duration(position) * chordRound
	}
	return chordCore*chordRound + time.Duration(position-chordCore)*chordStagger
}

func newChordApp(seed int64, nodes int, observed bool) *chordApp {
	a := &chordApp{
		seed:     seed,
		observed: observed,
		ring:     make([]uint64, nodes),
		nodes:    make([]*chord.Node, nodes),
		lat:      make([][]time.Duration, nodes),
	}
	for i := range a.ring {
		a.ring[i] = chordID(seed, i+1)
	}
	sort.Slice(a.ring, func(i, j int) bool { return a.ring[i] < a.ring[j] })
	return a
}

// owner is the identifier of key's successor on the converged ring.
func (a *chordApp) owner(key uint64) uint64 {
	i := sort.Search(len(a.ring), func(i int) bool { return a.ring[i] >= key })
	if i == len(a.ring) {
		i = 0
	}
	return a.ring[i]
}

// unconverged counts the instances whose successor is not the next
// identifier on the ring. Called between kernel runs, when no instance
// is executing.
func (a *chordApp) unconverged() int {
	wrong := 0
	for _, n := range a.nodes {
		if n == nil || n.Successor().ID != a.owner((n.Self().ID+1)&(1<<chordBits-1)) {
			wrong++
		}
	}
	return wrong
}

func (a *chordApp) Run(env *splay.Env) error {
	ctx := env.AppContext()
	pos := ctx.Job.Position
	cfg := chord.DefaultConfig()
	cfg.Bits = chordBits
	id := chordID(a.seed, pos)
	cfg.ID = &id
	n, err := chord.New(ctx, cfg)
	if err != nil {
		return err
	}
	if a.observed {
		n.SetInstruments(chord.NewInstruments(env.Metrics()))
		n.SetRPCInstruments(rpc.NewInstruments(env.Metrics()))
	}
	if err := n.Start(); err != nil {
		return err
	}
	if a.observed {
		if err := env.StartReporting(); err != nil {
			return err
		}
	}
	a.nodes[pos-1] = n
	ctx.Sleep(chordJoinAt(pos))
	if pos > 1 && len(ctx.Job.Nodes) > 0 {
		if err := n.Join(ctx.Job.Nodes[0]); err != nil {
			return fmt.Errorf("benchchord join: %w", err)
		}
	}
	n.StartMaintenance()

	// Lookups start at one virtual instant for the whole ring, each node
	// offset inside the period so the load is even rather than a burst
	// every two seconds.
	every := time.Minute / chordPerMin
	offset := every * time.Duration(pos) / time.Duration(len(a.nodes))
	if d := a.lookupsFrom.Add(offset).Sub(ctx.Now()); d > 0 {
		ctx.Sleep(d)
	}
	keys := rand.New(rand.NewSource(a.seed + int64(pos)))
	ctx.Periodic(every, func() {
		key := keys.Uint64() & (1<<chordBits - 1)
		res, err := n.Lookup(key)
		if !a.live.Load() {
			return
		}
		if err != nil || res.Node.ID != a.owner(key) {
			a.bad.Add(1)
			return
		}
		a.ok.Add(1)
		a.hops.Add(int64(res.Hops))
		a.lat[pos-1] = append(a.lat[pos-1], res.RTT)
	})
	env.RunUntilKilled()
	n.Stop()
	return nil
}

func runChordPlain(rc *runCtx, w *workload) (*outcome, error)    { return runChord(rc, w, false) }
func runChordObserved(rc *runCtx, w *workload) (*outcome, error) { return runChord(rc, w, true) }

func runChord(rc *runCtx, w *workload, observed bool) (*outcome, error) {
	nodes := rc.scaled(chordNodes, 16)
	hosts := chordHosts
	nSlices := w.slices(rc.seconds)
	windowSim := time.Duration(nSlices) * w.sliceSim

	app := newChordApp(rc.seed, nodes, observed)
	sc := splay.Scenario{
		Name:    w.name,
		Seed:    rc.seed,
		Testbed: splay.ModelNet(hosts),
		Apps:    []splay.AppSpec{{Name: "benchchord", Nodes: nodes, App: app}},
	}
	if observed {
		sc.Collect = splay.Collect{Metrics: true, ReportEvery: chordReportGap}
		// Faults that delay but never drop keep failed lookups at 0: the
		// degradation slows every hop until the rule notices and heals.
		sc.Faults = splay.FaultPlan{
			Events: []splay.FaultEvent{splay.DegradeAt(windowSim/4, chordDegrade, 0)},
			Rules: []splay.TriggerRule{{
				Name: "heal-slow-lookups",
				When: splay.Metric("chord.lookup_latency_ns", splay.StatP90, splay.Above, float64(chordSlowP90)),
				For:  chordSlowFor,
				Do:   splay.TriggerAction{Kind: splay.ActHeal},
			}},
		}
		sc.Assert = []splay.Assertion{splay.ConvergesWithin("no-failed-lookups",
			splay.Metric("chord.failed_lookups", splay.StatTotal, splay.Below, 1), windowSim)}
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

	windowAt := sess.Now().Add(chordDeploy + chordJoinAt(nodes) + chordConverge)
	app.lookupsFrom = windowAt.Add(-chordWarm)
	end = rc.tr.begin("splay.deploy")
	dep := sess.Deploy(sc.Apps[0])
	job, err := dep.Wait()
	end()
	if err != nil {
		return nil, err
	}
	if job.State != splay.JobRunning {
		return nil, fmt.Errorf("%s: job is %s: %s", w.name, job.State, job.Err)
	}
	end = rc.tr.begin("splay.converge")
	sess.RunFor(windowAt.Sub(sess.Now()))
	// A lookup on a ring with one wrong successor still "succeeds", at the
	// wrong owner, so the window opens only on a ring the oracle accepts.
	// On every seed tried it already is (extra rounds: 0); the loop is what
	// keeps a seed that is not from failing operations.
	round := 0
	for ; app.unconverged() > 0; round++ {
		if round == chordMaxRounds {
			end()
			return nil, fmt.Errorf("%s: %d of %d successors still wrong %v after the last join",
				w.name, app.unconverged(), nodes, chordConverge+chordMaxRounds*chordRound)
		}
		sess.RunFor(chordRound)
	}
	end()
	fmt.Printf("# %s: ring converged, %d extra rounds of %v\n", w.name, round, chordRound)
	if err := sess.ArmFaults(); err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)
	if rc.setupOnly {
		return out, nil
	}

	app.live.Store(true)
	var done int64
	out.slices, out.mallocs, err = rc.window(nSlices, w.sliceSim, func(int) int64 {
		sess.RunFor(w.sliceSim)
		now := app.ok.Load()
		ops := now - done
		done = now
		return ops
	})
	app.live.Store(false)
	if err != nil {
		return nil, err
	}
	out.heapMB = heapMB()

	out.attempted = app.ok.Load() + app.bad.Load()
	out.failed = app.bad.Load()
	var lat []time.Duration
	var st chord.Stats
	for i, n := range app.nodes {
		if n == nil {
			return nil, fmt.Errorf("%s: instance %d never started", w.name, i+1)
		}
		lat = append(lat, app.lat[i]...)
		s := n.Stats()
		st.Lookups += s.Lookups
		st.Forwarded += s.Forwarded
		st.StabilizeRuns += s.StabilizeRuns
		st.FingersFixed += s.FingersFixed
	}
	out.opSimMS = durationsMS(lat)
	out.counts["chord.lookups"] = float64(st.Lookups)
	out.counts["chord.forwarded"] = float64(st.Forwarded)
	out.counts["chord.stabilize_runs"] = float64(st.StabilizeRuns)
	out.counts["chord.fingers_fixed"] = float64(st.FingersFixed)
	out.counts["controller.frames"] = float64(dep.Frames())

	if out.failed != 0 {
		out.failf("%d of %d lookups failed or resolved to the wrong owner", out.failed, out.attempted)
	}
	meanHops := float64(app.hops.Load()) / math.Max(1, float64(app.ok.Load()))
	if bound := math.Log2(float64(nodes))/2 + 1; meanHops > bound {
		out.failf("mean hops %.2f exceed ½·log₂N+1 = %.2f", meanHops, bound)
	}
	if want := int64(windowSim.Minutes() * chordPerMin * float64(nodes)); absDiff(out.attempted, want) > int64(nodes) {
		out.failf("%d lookups completed in the window, want %d ± %d", out.attempted, want, nodes)
	}

	firings := 0
	if observed {
		firings = len(sess.Firings())
		if firings != 1 {
			out.failf("heal rule fired %d times, want exactly once", firings)
		}
		var aerr *splay.AssertionError
		if err := sess.CheckAssertions(); errors.As(err, &aerr) {
			out.failf("assertion: %v", aerr)
		} else if err != nil {
			return nil, err
		}
		end := rc.tr.begin("splay.telemetry_read")
		tel := sess.Telemetry()
		frames, bytes := tel.Received()
		out.counts["metrics.frames"] = float64(frames)
		out.counts["metrics.bytes"] = float64(bytes)
		out.counts["rpc.calls"] = float64(tel.Counter("rpc.calls"))
		out.counts["rpc.bytes"] = float64(tel.Counter("rpc.bytes_out"))
		telLookups := tel.Counter("chord.lookups")
		_ = tel.Series("chord.lookup_latency_ns").Percentile(90)
		end()
		out.counts["simnet.bytes"] = float64(sess.NetBytes())
		out.counts["faults.firings"] = float64(firings)
		if telLookups == 0 {
			out.failf("the aggregator saw no chord.lookups")
		}
	}
	var latSum time.Duration
	for _, d := range lat {
		latSum += d
	}
	out.digest = digest(w.name, app.ok.Load(), app.bad.Load(), app.hops.Load(), st.Forwarded, int64(latSum), firings)
	return out, nil
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
