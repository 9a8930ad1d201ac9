package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
)

func init() {
	register("hostplane", hostplane)
}

// Hosting-plane experiment parameters.
const (
	hpKey         = "hostplane"            // stream authentication key
	hpRTT         = 30 * time.Millisecond  // uniform testbed RTT
	hpReportEvery = 2 * time.Second        // per-node delta report period
	hpBits        = 40                     // ring bits: collision-safe
	hpStagger     = 200 * time.Millisecond // join spacing inside a job
	hpMargin      = 60 * time.Second       // stabilization window after the last join
	hpStabilize   = time.Second            // maintenance cadence (see hostChordApp)
	hpRounds      = 8                      // lookups per node
	hpLookupEvery = 2 * time.Second        // per-node lookup period
	hpSlack       = 8 * time.Second        // flush window after the workload
	hpStep        = time.Second            // driver poll granularity
)

// hostplane is the hosting plane's end-to-end demonstration: one
// resident controller hosts three tenants submitting serialized Chord
// scenarios concurrently onto a single shared simulated daemon fleet
// (5,000 at scale 1). The run exercises the whole multi-tenant story —
// per-tenant keys, quota rejection and bad-key rejection as typed
// errors, deterministic fair-share placement (carol's queued job starts
// before alice's earlier-queued third job because alice already holds
// more of the fleet), and no starvation (every admitted job finishes).
//
// The headline invariant (DESIGN.md #10) is checked directly: after the
// hosted runs finish, every submission's exact wire bytes are replayed
// on a local testbed and the result digest — instances placed, lookups
// issued, lookups failed — must match the hosted outcome bit for bit.
func hostplane(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("hostplane")
	daemons := opt.n(5000, 250)
	jobN := daemons / 10
	run, err := runHostplane(w, daemons, jobN, opt.Seed, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("hostplane %d daemons: %w", daemons, err)
	}

	fmt.Fprintf(w, "# summary\n")
	fmt.Fprintf(w, "%-26s %12.0f\n", "jobs done", run.jobsDone)
	fmt.Fprintf(w, "%-26s %12.0f\n", "rejected submissions", run.rejects)
	fmt.Fprintf(w, "%-26s %12.0f\n", "lookups", run.lookups)
	fmt.Fprintf(w, "%-26s %12.0f\n", "failed lookups", run.failed)
	fmt.Fprintf(w, "%-26s %12.0f\n", "digests matching local", run.digestMatch)
	fmt.Fprintf(w, "%-26s %12.1fs\n", "carol queue wait", run.waitCarolS)
	fmt.Fprintf(w, "%-26s %12.1fs\n", "alice(3rd) queue wait", run.waitAlice3S)

	res.Metrics["daemons"] = float64(daemons)
	res.Metrics["job_nodes"] = float64(jobN)
	res.Metrics["jobs_done"] = run.jobsDone
	res.Metrics["rejects"] = run.rejects
	res.Metrics["lookups"] = run.lookups
	res.Metrics["failed_lookups"] = run.failed
	res.Metrics["digest_match"] = run.digestMatch
	res.Metrics["wait_first_s"] = run.waitFirstS
	res.Metrics["wait_carol_s"] = run.waitCarolS
	res.Metrics["wait_alice3_s"] = run.waitAlice3S
	return res, nil
}

// hostplaneRun carries one run's headline numbers.
type hostplaneRun struct {
	jobsDone    float64
	rejects     float64
	lookups     float64
	failed      float64
	digestMatch float64
	waitFirstS  float64
	waitCarolS  float64
	waitAlice3S float64
}

// hostChordParams travels in the submission's app params, so the hosted
// run and the local replay of the same bytes execute the identical
// workload.
type hostChordParams struct {
	Series    string `json:"series"`     // telemetry prefix, unique per job
	StaggerMS int64  `json:"stagger_ms"` // join spacing
	StartMS   int64  `json:"start_ms"`   // workload start on the instance clock
	Rounds    int    `json:"rounds"`     // lookups per node
	EveryMS   int64  `json:"every_ms"`   // lookup period
}

// hostChordApp is the registry entry the resident platform is started
// with; submissions reference it by name. Ring identifiers and lookup
// keys come from env.Rand, keyed by (job seed, app, position) — never by
// placement — so a job builds the same ring whether its instances land on
// daemons 3..27 of a private testbed or 812..2201 of the shared fleet:
// hosted results are byte-comparable to local ones.
func hostChordApp(params []byte) (splay.App, error) {
	var p hostChordParams
	// Daemons validate registry entries with nil params at REGISTER
	// time; only a real START carries the submission's params.
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("hostchord app: %w", err)
		}
	}
	return splay.AppFunc(func(env *splay.Env) error {
		t0 := env.Now()
		job := env.Job()
		cfg := chord.DefaultConfig()
		cfg.Bits = hpBits
		// FixFingers repairs one finger per round, so a full pass over a
		// 40-bit table takes Bits rounds: the default 5 s cadence needs
		// 200 s to converge, while this cadence fits inside hpMargin even
		// for the job's last joiner (hpMargin/hpStabilize > hpBits).
		cfg.StabilizeEvery = hpStabilize
		id := env.Rand().Uint64() & (1<<hpBits - 1)
		cfg.ID = &id
		n, err := chord.New(env.AppContext(), cfg)
		if err != nil {
			return err
		}
		mreg := env.Metrics()
		lookups := mreg.Counter(p.Series + ".lookups")
		failed := mreg.Counter(p.Series + ".failed")
		if err := n.Start(); err != nil {
			return err
		}
		if err := env.StartReporting(); err != nil {
			return err
		}
		env.Sleep(time.Duration(job.Position) * time.Duration(p.StaggerMS) * time.Millisecond)
		if job.Position > 1 && len(job.Nodes) > 0 {
			if err := n.Join(job.Nodes[0]); err != nil {
				return fmt.Errorf("hostchord join: %w", err)
			}
		}
		n.StartMaintenance()
		if d := time.Duration(p.StartMS)*time.Millisecond - env.Now().Sub(t0); d > 0 {
			env.Sleep(d)
		}
		for j := 0; j < p.Rounds && !env.Killed(); j++ {
			key := env.Rand().Uint64() & (1<<hpBits - 1)
			lookups.Inc()
			if _, err := n.Lookup(key); err != nil {
				failed.Inc()
			}
			env.Sleep(time.Duration(p.EveryMS) * time.Millisecond)
		}
		return nil
	}), nil
}

// hostSubmission builds one tenant's scenario: hostchord by name, its
// own seed and telemetry series, on the testbed a local replay would
// use (the hosting plane ignores the testbed; the replay needs it).
func hostSubmission(name, series string, seed int64, nodes int) (splay.Scenario, error) {
	start := time.Duration(nodes)*hpStagger + hpMargin
	params, err := json.Marshal(hostChordParams{
		Series:    series,
		StaggerMS: hpStagger.Milliseconds(),
		StartMS:   start.Milliseconds(),
		Rounds:    hpRounds,
		EveryMS:   hpLookupEvery.Milliseconds(),
	})
	if err != nil {
		return splay.Scenario{}, err
	}
	return splay.Scenario{
		Name:     name,
		Seed:     seed,
		Testbed:  splay.Uniform(nodes+2, hpRTT, 0),
		Collect:  splay.Collect{Metrics: true, ReportEvery: hpReportEvery},
		Apps:     []splay.AppSpec{{Name: "hostchord", Nodes: nodes, Params: params}},
		Duration: start + hpRounds*hpLookupEvery + hpSlack,
	}, nil
}

// hostedSub tracks one submission through the hosted run.
type hostedSub struct {
	tenant, key, series string
	bytes               []byte
	view                splay.HostJob
}

// runHostplane provisions the resident platform, drives the tenants'
// submissions, and replays every submission locally for the byte-
// identity check.
func runHostplane(w io.Writer, daemons, jobN int, seed int64, workers int) (*hostplaneRun, error) {
	resident := splay.Scenario{
		Name:            "hostplane",
		Seed:            seed,
		Workers:         workers,
		Testbed:         splay.Uniform(daemons, hpRTT, 0),
		RegisterTimeout: 60 * time.Second,
		Collect: splay.Collect{
			Metrics:     true,
			ReportEvery: hpReportEvery,
			Key:         hpKey,
		},
		Apps: []splay.AppSpec{{Name: "hostchord", New: hostChordApp}},
	}
	sess, err := resident.Start(context.Background())
	if err != nil {
		return nil, err
	}
	defer sess.Stop()

	// Capacity holds exactly three jobs, so the fourth and fifth
	// submissions queue and the fair-share order becomes observable.
	host, err := sess.Host(splay.HostConfig{
		Capacity: 3 * jobN,
		Tenants: []splay.HostTenant{
			{Name: "alice", Key: "key-alice"},
			{Name: "bob", Key: "key-bob"},
			{Name: "carol", Key: "key-carol"},
			{Name: "dave", Key: "key-dave", Quota: splay.HostQuota{MaxNodes: jobN / 2}},
		},
	})
	if err != nil {
		return nil, err
	}

	// Five admitted submissions, one second apart: alice fills two
	// capacity slots, bob the third, then alice queues a third job one
	// second BEFORE carol queues her first. Fair share must start
	// carol's anyway — alice already holds two jobs' worth of nodes.
	base := seed * 1000
	subs := []*hostedSub{
		{tenant: "alice", key: "key-alice", series: "a1"},
		{tenant: "alice", key: "key-alice", series: "a2"},
		{tenant: "bob", key: "key-bob", series: "b1"},
		{tenant: "alice", key: "key-alice", series: "a3"},
		{tenant: "carol", key: "key-carol", series: "c1"},
	}
	for i, sub := range subs {
		sc, err := hostSubmission("host-"+sub.series, sub.series, base+int64(i+1), jobN)
		if err != nil {
			return nil, err
		}
		if sub.bytes, err = sc.Marshal(); err != nil {
			return nil, err
		}
		if sub.view, err = host.SubmitRaw(sub.key, sub.bytes); err != nil {
			return nil, fmt.Errorf("%s submit %s: %w", sub.tenant, sub.series, err)
		}
		sess.RunFor(time.Second)
	}
	for _, sub := range subs[3:] {
		if v, err := host.Job(sub.key, sub.view.ID); err != nil || v.State != splay.HostQueued {
			return nil, fmt.Errorf("job %s should be queued behind capacity, got %v (%v)",
				sub.series, v.State, err)
		}
	}

	// Rejections are typed errors, not hangs: dave's submission exceeds
	// his node quota, and an unknown key never reaches admission.
	over, err := hostSubmission("host-d1", "d1", base+9, jobN)
	if err != nil {
		return nil, err
	}
	overBytes, err := over.Marshal()
	if err != nil {
		return nil, err
	}
	var herr *splay.HostError
	if _, err := host.SubmitRaw("key-dave", overBytes); !errors.As(err, &herr) || string(herr.Code) != "quota" {
		return nil, fmt.Errorf("dave's over-quota submission: got %v, want typed quota error", err)
	}
	if _, err := host.SubmitRaw("key-mallory", overBytes); !errors.As(err, &herr) || string(herr.Code) != "auth" {
		return nil, fmt.Errorf("unknown key: got %v, want typed auth error", err)
	}

	// Drive the platform until every admitted job reaches a terminal
	// state, reporting progress on the virtual clock.
	jobDur := time.Duration(jobN)*hpStagger + hpMargin + hpRounds*hpLookupEvery + hpSlack
	deadline := 2*jobDur + 60*time.Second
	t0 := sess.Now()
	fmt.Fprintf(w, "%-8s %8s %8s %8s\n", "t", "done", "running", "queued")
	for sess.Now().Sub(t0) < deadline {
		done, running, queued := 0, 0, 0
		for _, sub := range subs {
			v, err := host.Job(sub.key, sub.view.ID)
			if err != nil {
				return nil, err
			}
			sub.view = v
			switch {
			case v.State.Terminal():
				done++
			case v.State == splay.HostQueued:
				queued++
			default:
				running++
			}
		}
		if el := sess.Now().Sub(t0); el%(20*time.Second) < hpStep {
			fmt.Fprintf(w, "%-8s %8d %8d %8d\n", el.Round(time.Second), done, running, queued)
		}
		if done == len(subs) {
			break
		}
		sess.RunFor(hpStep)
	}
	// One more report period so the final workload deltas and the host's
	// own instrument stream reach the aggregator.
	sess.RunFor(2*hpReportEvery + time.Second)

	tel := sess.Telemetry()
	run := &hostplaneRun{}
	fmt.Fprintf(w, "# jobs\n")
	fmt.Fprintf(w, "%-4s %-6s %-7s %10s %9s %7s\n", "job", "tenant", "state", "wait", "lookups", "failed")
	hostedDigests := make([]string, len(subs))
	for i, sub := range subs {
		hres, err := host.Result(sub.key, sub.view.ID)
		if err != nil {
			return nil, fmt.Errorf("result %s: %w", sub.series, err)
		}
		if hres.State != splay.HostDone {
			return nil, fmt.Errorf("job %s (%s) finished %s: %s", sub.series, sub.tenant, hres.State, hres.Error)
		}
		if len(hres.Apps) != 1 || hres.Apps[0].Deployed != jobN {
			return nil, fmt.Errorf("job %s placement %+v, want %d instances", sub.series, hres.Apps, jobN)
		}
		lk := tel.Counter(sub.series + ".lookups")
		fl := tel.Counter(sub.series + ".failed")
		hostedDigests[i] = fmt.Sprintf("deployed=%d lookups=%d failed=%d", hres.Apps[0].Deployed, lk, fl)
		run.lookups += float64(lk)
		run.failed += float64(fl)
		run.jobsDone++
		wait := hres.QueueWaitNS.Seconds()
		switch sub.series {
		case "a1":
			run.waitFirstS = wait
		case "a3":
			run.waitAlice3S = wait
		case "c1":
			run.waitCarolS = wait
		}
		fmt.Fprintf(w, "%-4s %-6s %-7s %9.1fs %9d %7d\n", sub.series, sub.tenant, hres.State, wait, lk, fl)
	}
	run.rejects = float64(tel.Counter("host.rejects"))
	if run.rejects != 2 {
		return nil, fmt.Errorf("host.rejects = %.0f, want 2 (quota + auth)", run.rejects)
	}
	if want := float64(len(subs) * jobN * hpRounds); run.lookups != want {
		return nil, fmt.Errorf("aggregated %.0f lookups, want %.0f", run.lookups, want)
	}
	if run.failed != 0 {
		return nil, fmt.Errorf("%.0f lookups failed on converged hosted rings", run.failed)
	}
	// Fair share, concretely: alice's third job was queued before
	// carol's first, but carol — holding none of the fleet — starts
	// first. No starvation: both finished (checked above).
	a3, c1 := subs[3].view, subs[4].view
	if !c1.StartedAt.Before(a3.StartedAt) {
		return nil, fmt.Errorf("fair share violated: carol started %v, alice's third %v",
			c1.StartedAt, a3.StartedAt)
	}

	// The byte-identity check (DESIGN.md invariant 10): replay each
	// submission's exact wire bytes on a local testbed and compare
	// digests. Only the app factory — fixed platform-side by the
	// registry, never by the bytes — is re-attached.
	fmt.Fprintf(w, "# local replays\n")
	run.digestMatch = 1
	for i, sub := range subs {
		back, err := splay.UnmarshalScenario(sub.bytes)
		if err != nil {
			return nil, err
		}
		back.Apps[0].New = hostChordApp
		lres, err := back.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("local replay %s: %w", sub.series, err)
		}
		local := fmt.Sprintf("deployed=%d lookups=%d failed=%d",
			len(lres.Jobs[0].Deployed),
			lres.Metrics.Counter(sub.series+".lookups"),
			lres.Metrics.Counter(sub.series+".failed"))
		match := local == hostedDigests[i]
		if !match {
			run.digestMatch = 0
		}
		fmt.Fprintf(w, "%-4s hosted{%s} local{%s} match=%v\n", sub.series, hostedDigests[i], local, match)
	}
	if run.digestMatch != 1 {
		return nil, errors.New("hosted results diverge from local replays of the same bytes")
	}
	return run, nil
}
