package splay_test

// Scenario tests: the declarative deployment chain on simulated and live
// testbeds, sim↔live parity of the application-visible surface, churn
// wiring, and registration error surfacing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// runParity executes one fixed scenario on the given testbed and returns
// what the application observed, one line per instance, sorted.
func runParity(t *testing.T, tb splay.Testbed) []string {
	t.Helper()
	var mu sync.Mutex
	var obs []string
	sc := splay.Scenario{
		Seed:    7,
		Testbed: tb,
		Apps: []splay.AppSpec{{
			Name:  "parity",
			Nodes: 2,
			Env:   splay.EnvConfig{Caps: splay.CapNet}, // fs withheld
			App: splay.AppFunc(func(env *splay.Env) error {
				job := env.Job()
				_, fsErr := env.FS()
				var capErr *splay.CapabilityError
				ln, netErr := env.Listen(0)
				if netErr == nil {
					ln.Close()
				}
				mu.Lock()
				obs = append(obs, fmt.Sprintf("pos=%d nodes=%d port>0=%v fsdenied=%v net=%v",
					job.Position, len(job.Nodes), job.Me.Port > 0,
					errors.As(fsErr, &capErr), netErr == nil))
				mu.Unlock()
				return nil
			}),
		}},
		Duration: time.Second,
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("%T: %v", tb, err)
	}
	// Run stops jobs on the way out: a completed one-shot run reports done.
	if len(res.Jobs) != 1 || res.Jobs[0].State != splay.JobDone {
		t.Fatalf("%T: jobs = %+v", tb, res.Jobs)
	}
	if got := len(res.Jobs[0].Deployed); got != 2 {
		t.Fatalf("%T: deployed %d instances, want 2", tb, got)
	}
	mu.Lock()
	defer mu.Unlock()
	out := append([]string(nil), obs...)
	sort.Strings(out)
	return out
}

// TestScenarioSimLiveParity deploys the same scenario on a simulated and
// a live testbed and checks the application-visible behavior — job info
// shape, granted and denied capabilities — is identical.
func TestScenarioSimLiveParity(t *testing.T) {
	t.Parallel()
	simObs := runParity(t, splay.Uniform(3, time.Millisecond, 0))
	liveObs := runParity(t, splay.Live(3))
	if len(simObs) != len(liveObs) {
		t.Fatalf("sim saw %d instances, live %d", len(simObs), len(liveObs))
	}
	for i := range simObs {
		if simObs[i] != liveObs[i] {
			t.Errorf("parity drift:\n sim  %s\n live %s", simObs[i], liveObs[i])
		}
	}
}

// TestLiveDaemonsReportFleetCounters: simulated and live testbeds are
// provisioned by one sequence, so a live fleet's daemons count their
// commands and job starts into the controller's "ctl" stream exactly as
// a simulated fleet's do.
func TestLiveDaemonsReportFleetCounters(t *testing.T) {
	t.Parallel()
	for _, tb := range []splay.Testbed{splay.Uniform(3, time.Millisecond, 0), splay.Live(3)} {
		res, err := splay.Scenario{
			Testbed:  tb,
			Collect:  splay.Collect{Metrics: true, ReportEvery: 200 * time.Millisecond},
			Apps:     []splay.AppSpec{{Name: "chord", Nodes: 3}},
			Duration: time.Second,
		}.Run(context.Background())
		if err != nil {
			t.Fatalf("%T: %v", tb, err)
		}
		for _, name := range []string{"ctl.deploys", "daemon.commands", "daemon.jobs_started"} {
			if got := res.Metrics.Counter(name); got == 0 {
				t.Errorf("%T: %s = 0 in the telemetry", tb, name)
			}
		}
	}
}

// TestScenarioCollectsMetrics runs a simulated scenario whose app
// reports instruments through Env.StartReporting and checks the
// aggregated result surfaces them.
func TestScenarioCollectsMetrics(t *testing.T) {
	t.Parallel()
	sc := splay.Scenario{
		Testbed: splay.Uniform(4, 2*time.Millisecond, 0),
		Collect: splay.Collect{Metrics: true, ReportEvery: time.Second},
		Apps: []splay.AppSpec{{
			Name:  "ticker",
			Nodes: 3,
			App: splay.AppFunc(func(env *splay.Env) error {
				ticks := env.Metrics().Counter("app.ticks")
				if err := env.StartReporting(); err != nil {
					return err
				}
				env.Periodic(500*time.Millisecond, func() { ticks.Inc() })
				return nil
			}),
		}},
		Duration: 10 * time.Second,
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("no telemetry on a collecting scenario")
	}
	// 3 app streams + the controller's own.
	if got := res.Metrics.Nodes(); got != 4 {
		t.Errorf("reporting nodes = %d, want 4", got)
	}
	if got := res.Metrics.Counter("app.ticks"); got == 0 {
		t.Error("aggregated tick counter is zero")
	}
	if got := res.Metrics.Counter("ctl.deploys"); got != 1 {
		t.Errorf("controller stream deploys = %d, want 1", got)
	}
	if frames, bytes := res.Metrics.Received(); frames == 0 || bytes == 0 {
		t.Errorf("plane carried %d frames / %d bytes", frames, bytes)
	}
}

// TestScenarioWorkerNeutrality is DESIGN.md invariant 9 at the SDK
// surface: Workers is a wall-clock knob, so the same simulated scenario
// must produce an identical Result at any worker count.
func TestScenarioWorkerNeutrality(t *testing.T) {
	t.Parallel()
	type outcome struct {
		ticks, deploys, frames, bytes uint64
	}
	runAt := func(workers int) outcome {
		sc := splay.Scenario{
			Seed:    31,
			Workers: workers,
			Testbed: splay.Uniform(4, 2*time.Millisecond, 0),
			Collect: splay.Collect{Metrics: true, ReportEvery: time.Second},
			Apps: []splay.AppSpec{{
				Name:  "ticker",
				Nodes: 3,
				App: splay.AppFunc(func(env *splay.Env) error {
					ticks := env.Metrics().Counter("app.ticks")
					if err := env.StartReporting(); err != nil {
						return err
					}
					env.Periodic(500*time.Millisecond, func() { ticks.Inc() })
					return nil
				}),
			}},
			Duration: 10 * time.Second,
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		frames, bytes := res.Metrics.Received()
		return outcome{
			ticks:   res.Metrics.Counter("app.ticks"),
			deploys: res.Metrics.Counter("ctl.deploys"),
			frames:  frames,
			bytes:   bytes,
		}
	}
	ref := runAt(0)
	for _, w := range []int{1, 4} {
		if got := runAt(w); got != ref {
			t.Errorf("Workers=%d changed the result: %+v, want %+v", w, got, ref)
		}
	}
}

// TestScenarioAutoPartition pins the testbed partitioning contract: a
// scenario past the population threshold provisions a sharded kernel
// (P > 1, chosen from the host count alone) — also when it collects
// metrics, injects faults and asserts — and the choice is
// schedule-visible only via P — Workers, including 0 for "as many
// threads as partitions and processors allow", never changes a result
// byte, and neither does GOMAXPROCS.
func TestScenarioAutoPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-host population")
	}
	// Not parallel: it sets GOMAXPROCS, which is the whole process's.
	type outcome struct {
		parts  int
		state  splay.JobState
		placed string
		now    time.Time
	}
	runAt := func(workers int) (outcome, splay.KernelStats) {
		sc := splay.Scenario{
			Seed:    13,
			Workers: workers,
			Testbed: splay.Uniform(2047, 10*time.Millisecond, 0),
			Apps: []splay.AppSpec{{
				Name:  "noop",
				Nodes: 8,
				App:   splay.AppFunc(func(env *splay.Env) error { return nil }),
			}},
		}
		sess, err := sc.Start(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer sess.Stop()
		job, err := sess.Deploy(sc.Apps[0]).Wait()
		if err != nil {
			t.Fatalf("workers=%d: deploy: %v", workers, err)
		}
		sess.RunFor(30 * time.Second)
		placed := make([]string, 0, len(job.Deployed))
		for _, a := range job.Deployed {
			placed = append(placed, fmt.Sprintf("%v", a))
		}
		return outcome{
			parts:  sess.Partitions(),
			state:  job.State,
			placed: strings.Join(placed, ","),
			now:    sess.Now(),
		}, sess.KernelStats()
	}
	ref, stats := runAt(0)
	if ref.parts != 2 {
		t.Fatalf("partitions = %d at 2048 hosts, want 2", ref.parts)
	}
	if ref.placed == "" {
		t.Fatal("no instances placed")
	}
	if stats.Rounds == 0 || len(stats.Events) != 2 || stats.Events[0] == 0 || stats.Events[1] == 0 {
		t.Errorf("kernel stats of a two-partition run: %+v", stats)
	}
	for _, w := range []int{1, 4} {
		if got, _ := runAt(w); got != ref {
			t.Errorf("Workers=%d changed the result:\n got  %+v\n want %+v", w, got, ref)
		}
	}
	// Workers: 0 follows the machine — one processor runs both partitions
	// inline and never waits at a barrier, two get a thread each — and the
	// machine never reaches the result.
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got, stats := runAt(0)
		runtime.GOMAXPROCS(prev)
		if got != ref {
			t.Errorf("GOMAXPROCS=%d changed the result:\n got  %+v\n want %+v", procs, got, ref)
		}
		if procs == 1 && stats.CoordParks+stats.HelperParks != 0 {
			t.Errorf("GOMAXPROCS=1, Workers=0: %d barrier parks, want none (every partition inline)", stats.CoordParks+stats.HelperParks)
		}
	}
	// More workers than processors: every barrier wait parks.
	prev := runtime.GOMAXPROCS(1)
	got, stats := runAt(4)
	runtime.GOMAXPROCS(prev)
	if got != ref {
		t.Errorf("GOMAXPROCS=1, Workers=4 changed the result:\n got  %+v\n want %+v", got, ref)
	}
	if stats.CoordParks == 0 {
		t.Errorf("GOMAXPROCS=1, Workers=4: no barrier parks in %d rounds", stats.Rounds)
	}
	// The observed planes shard like the plain one.
	sess, err := splay.Scenario{
		Seed:    13,
		Testbed: splay.Uniform(2047, 10*time.Millisecond, 0),
		Collect: splay.Collect{Metrics: true},
		Faults:  splay.FaultPlan{Events: []splay.FaultEvent{splay.DegradeAt(time.Second, time.Millisecond, 0)}},
		Assert:  []splay.Assertion{splay.EventuallyHolds("reports", splay.Metric("", splay.StatNodes, splay.Above, 0), 0)},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if got := sess.Partitions(); got != 2 {
		t.Errorf("collecting, faulted, asserting scenario on 2,049 hosts: %d partitions, want 2", got)
	}
	// So does one that collects logs.
	var logs strings.Builder
	logged, err := splay.Scenario{
		Seed:    13,
		Testbed: splay.Uniform(2047, 10*time.Millisecond, 0),
		Collect: splay.Collect{Logs: &logs},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Stop()
	if got := logged.Partitions(); got != 2 {
		t.Errorf("logging scenario on 2,048 hosts: %d partitions, want 2", got)
	}
}

// TestShardedModelNetRounds: on a ModelNet testbed the partitions follow
// stub domains, so the kernel's lookahead is the 20 ms a message needs to
// leave its stub domain, not the 5 ms inside one. A busy 2,048-host run
// therefore takes at most one barrier round per 20 simulated ms (a round
// starts at the earliest pending event and covers one lookahead), and it
// takes the same rounds, events and bytes at Workers 1 and 2 (invariant 9).
func TestShardedModelNetRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-host population, two runs")
	}
	const window = 60 * time.Second
	run := func(workers int) string {
		spec := splay.AppSpec{Name: "chord", Nodes: 64, Params: []byte(`{"lookups_per_min":60}`)}
		sess, err := splay.Scenario{Seed: 7, Workers: workers, Testbed: splay.ModelNet(2047),
			Apps: []splay.AppSpec{spec}}.Start(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer sess.Stop()
		if got := sess.Partitions(); got != 2 {
			t.Fatalf("workers=%d: %d partitions at 2,048 hosts, want 2", workers, got)
		}
		if _, err := sess.Deploy(spec).Wait(); err != nil {
			t.Fatalf("workers=%d: deploy: %v", workers, err)
		}
		before := sess.KernelStats()
		sess.RunFor(window)
		after := sess.KernelStats()
		rounds := after.Rounds - before.Rounds
		if limit := uint64(window/(20*time.Millisecond)) + 1; rounds > limit {
			t.Errorf("workers=%d: %d barrier rounds in %s, want ≤ %d (one per 20 ms)", workers, rounds, window, limit)
		}
		return fmt.Sprintf("rounds %d, cross posts %d, events %v, bytes %d, now %s",
			rounds, after.CrossPosts, after.Events, sess.NetBytes(), sess.Now())
	}
	ref := run(1)
	t.Log(ref)
	if got := run(2); got != ref {
		t.Errorf("Workers=2 changed the run:\n got  %s\n want %s", got, ref)
	}
}

// TestLiveLogsShareOneWriter: every live daemon's instances log onto the
// scenario's one writer concurrently. One sink serializes them, so the
// writer needs no lock of its own (-race reports a sink per daemon), no
// line is torn, and each line names its daemon in the node column.
func TestLiveLogsShareOneWriter(t *testing.T) {
	const daemons, lines = 3, 200
	var logs bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(daemons)
	sc := splay.Scenario{
		Testbed:  splay.Live(daemons),
		Collect:  splay.Collect{Logs: &logs},
		Duration: 200 * time.Millisecond,
		Apps: []splay.AppSpec{{
			Name:  "chatty",
			Nodes: daemons,
			App: splay.AppFunc(func(env *splay.Env) error {
				defer wg.Done()
				for i := 0; i < lines; i++ {
					env.Logf("line %d from %s", i, env.Job().Me.Host)
				}
				return nil
			}),
		}},
	}
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	line := regexp.MustCompile(`^\S+ INFO  (127\.0\.1\.\d) line \d+ from (127\.0\.1\.\d)$`)
	perNode := map[string]int{}
	for _, l := range strings.Split(strings.TrimSuffix(logs.String(), "\n"), "\n") {
		if !strings.Contains(l, " line ") {
			continue // the daemons' own started/stopped lines
		}
		m := line.FindStringSubmatch(l)
		if m == nil || m[1] != m[2] {
			t.Fatalf("torn or misattributed line %q", l)
		}
		perNode[m[1]]++
	}
	if len(perNode) != daemons {
		t.Fatalf("lines from %d daemons, want %d: %v", len(perNode), daemons, perNode)
	}
	for node, n := range perNode {
		if n != lines {
			t.Errorf("%s wrote %d lines, want %d", node, n, lines)
		}
	}
}

// TestScenarioPlanetLabShards: PlanetLab's processing-delay hook draws
// from the receiving host's own jitter stream, on the partition that owns
// the host, so a PlanetLab testbed shards like any other: 4,096 daemons
// provision two partitions, and a gossip job over them — every message
// charged a jittered delay on both partitions — ends in one fingerprint at
// Workers 1, 2 and 4.
func TestScenarioPlanetLabShards(t *testing.T) {
	if testing.Short() {
		t.Skip("4k-host population")
	}
	t.Parallel()
	fingerprint := func(workers int) string {
		sc := splay.Scenario{
			Seed:    13,
			Workers: workers,
			Testbed: splay.PlanetLab(4096),
			Apps:    []splay.AppSpec{{Name: "cyclon", Nodes: 48, Params: []byte(`{"view_size":8,"shuffle_len":4,"shuffle_every":2000000000}`)}},
		}
		sess, err := sc.Start(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer sess.Stop()
		if got := sess.Partitions(); got != 2 {
			t.Fatalf("PlanetLab(4096) provisioned %d partitions, want 2", got)
		}
		job, err := sess.Deploy(sc.Apps[0]).Wait()
		if err != nil || job.State != splay.JobRunning {
			t.Fatalf("workers=%d: deploy: %v (%+v)", workers, err, job)
		}
		sess.RunFor(30 * time.Second)
		return fmt.Sprintf("%v at %s, %d bytes", job.Deployed, sess.Now().Format(time.RFC3339Nano), sess.NetBytes())
	}
	ref := fingerprint(1)
	for _, w := range []int{2, 4} {
		if got := fingerprint(w); got != ref {
			t.Errorf("Workers=%d changed the run:\n got  %s\n want %s", w, got, ref)
		}
	}
}

// TestScenarioChurn replays a small churn script against an inline app
// and checks starts and kills both happen.
func TestScenarioChurn(t *testing.T) {
	t.Parallel()
	churn, err := splay.ChurnScript("at 1s join 10\nat 30s leave 50%", 3)
	if err != nil {
		t.Fatal(err)
	}
	started, killed := 0, 0
	sc := splay.Scenario{
		Testbed: splay.Uniform(0, time.Millisecond, 0),
		Churn:   churn,
		Apps: []splay.AppSpec{{
			Name: "churned",
			App: splay.AppFunc(func(env *splay.Env) error {
				started++
				env.OnKill(func() { killed++ })
				return nil
			}),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	sess.RunFor(2 * time.Minute)
	if started != 10 {
		t.Errorf("started %d instances, want 10", started)
	}
	if killed != 5 {
		t.Errorf("killed %d instances, want 5", killed)
	}
	if alive := sess.Daemons(); alive != 5 {
		t.Errorf("alive = %d, want 5", alive)
	}
}

// TestScenarioChurnFactoryError: a churn scenario whose app cannot be
// built must not run silently empty. Bad params of a built-in fail
// Start; a user factory is called once per join as ever, and its first
// error comes back from Run.
func TestScenarioChurnFactoryError(t *testing.T) {
	t.Parallel()
	churn, err := splay.ChurnScript("at 1s join 4", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := splay.Scenario{
		Testbed: splay.Uniform(0, time.Millisecond, 0),
		Churn:   churn,
		Apps:    []splay.AppSpec{{Name: "cyclon", Params: []byte(`{"view_size":"twenty"}`)}},
	}
	if sess, err := sc.Start(context.Background()); err == nil {
		sess.Stop()
		t.Error("Start accepted a built-in whose params do not decode")
	} else if !strings.Contains(err.Error(), "view_size") {
		t.Errorf("Start: err = %v, want it to name view_size", err)
	}

	calls := 0
	sc.Apps = []splay.AppSpec{{Name: "flaky", New: func([]byte) (splay.App, error) {
		if calls++; calls == 3 {
			return nil, errors.New("third join fails")
		}
		return splay.AppFunc(func(*splay.Env) error { return nil }), nil
	}}}
	sc.Duration = 10 * time.Second
	if _, err := sc.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "third join fails") {
		t.Errorf("Run: err = %v, want the factory's error", err)
	}
	if calls != 4 {
		t.Errorf("factory called %d times, want once per join (4)", calls)
	}
}

// TestScenarioChurnRendezvous: a churned-in instance gets the job info a
// daemon-deployed one would — a job ID and one running instance to
// bootstrap from (every one of them with FullList), nothing for the first
// join. Without it every by-name built-in bootstraps a ring or view of one.
func TestScenarioChurnRendezvous(t *testing.T) {
	t.Parallel()
	churn, err := splay.ChurnScript("at 1s join 1\nat 10s join 5\nat 20s leave 50%\nat 30s join 2", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range []bool{false, true} {
		alive := map[splay.Addr]bool{}
		joins := 0
		sc := splay.Scenario{
			Testbed: splay.Uniform(0, time.Millisecond, 0),
			Churn:   churn,
			Apps: []splay.AppSpec{{
				Name:     "joiner",
				FullList: full,
				App: splay.AppFunc(func(env *splay.Env) error {
					job := env.Job()
					if job.JobID != "scenario" {
						t.Errorf("job id = %q, want the scenario fallback", job.JobID)
					}
					want := 1
					if full || len(alive) == 0 {
						want = len(alive)
					}
					if len(job.Nodes) != want {
						t.Errorf("full=%v join %d: job.nodes = %v with %d instances alive, want %d", full, joins, job.Nodes, len(alive), want)
					}
					for _, a := range job.Nodes {
						if !alive[a] {
							t.Errorf("full=%v join %d: rendez-vous %v is not a running instance", full, joins, a)
						}
					}
					joins++
					alive[job.Me] = true
					env.OnKill(func() { delete(alive, job.Me) })
					return nil
				}),
			}},
		}
		sess, err := sc.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sess.RunFor(time.Minute)
		sess.Stop()
		if joins != 8 {
			t.Errorf("full=%v: %d joins, want 8", full, joins)
		}
	}
}

// churnComposed is a by-name cyclon under a join/leave script with every
// other plane switched on: collection, a timed partition and heal, a
// trigger rule and the given assertions.
func churnComposed(t *testing.T, workers int, asserts ...splay.Assertion) splay.Scenario {
	t.Helper()
	churn, err := splay.ChurnScript("at 1s join 12\nat 30s leave 25%\nat 40s join 4", 9)
	if err != nil {
		t.Fatal(err)
	}
	return splay.Scenario{
		Name:    "composed",
		Seed:    9,
		Testbed: splay.Uniform(0, 10*time.Millisecond, 0),
		Churn:   churn,
		Apps:    []splay.AppSpec{{Name: "cyclon", Params: []byte(`{"report":true,"shuffle_every":2000000000}`)}},
		Collect: splay.Collect{Metrics: true, ReportEvery: 2 * time.Second},
		Faults: splay.FaultPlan{
			EvalEvery: 2 * time.Second,
			Events:    []splay.FaultEvent{splay.PartitionAt(15*time.Second, 0.3), splay.HealAt(25 * time.Second)},
			Rules: []splay.TriggerRule{{
				Name: "gossiping",
				When: splay.Metric("cyclon.shuffles", splay.StatTotal, splay.Above, 0),
				Do:   splay.TriggerAction{Kind: splay.ActHeal},
			}},
		},
		Assert:   asserts,
		Duration: time.Minute,
		Workers:  workers,
	}
}

// TestScenarioChurnComposes: churn is a population schedule over the one
// simulated start, so collection, network faults, trigger rules and
// assertions all run under it — deterministically, at any worker count.
func TestScenarioChurnComposes(t *testing.T) {
	t.Parallel()
	gossips := splay.EventuallyHolds("gossips", splay.Metric("cyclon.shuffles", splay.StatTotal, splay.Above, 0), 0)
	type outcome struct {
		shuffles, frames, bytes uint64
		nodes, daemons          int
		firings                 string
	}
	run := func(workers int) outcome {
		sc := churnComposed(t, workers, gossips)
		sess, err := sc.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Stop()
		if err := sess.ArmFaults(); err != nil {
			t.Fatal(err)
		}
		sess.RunFor(sc.Duration)
		if err := sess.CheckAssertions(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		tm := sess.Telemetry()
		o := outcome{shuffles: tm.Counter("cyclon.shuffles"), nodes: tm.Nodes(), daemons: sess.Daemons(), firings: fmt.Sprint(sess.Firings())}
		o.frames, o.bytes = tm.Received()
		return o
	}
	ref := run(1)
	if ref.shuffles == 0 || ref.daemons != 13 || ref.firings == "[]" {
		t.Errorf("composed churn run = %+v, want shuffles, 13 slots alive and a firing", ref)
	}
	for _, w := range []int{1, 4} {
		if got := run(w); got != ref {
			t.Errorf("Workers=%d changed the result:\n got  %+v\n want %+v", w, got, ref)
		}
	}

	// Run reports the same planes: telemetry on the Result, and a violated
	// assertion as a typed error beside it.
	res, err := churnComposed(t, 0, gossips).Run(context.Background())
	if err != nil || res.Metrics == nil || res.Metrics.Counter("cyclon.shuffles") != ref.shuffles {
		t.Fatalf("Run: res = %+v, err = %v, want %d shuffles in the telemetry", res, err, ref.shuffles)
	}
	quiet := splay.StaysBelow("quiet", "cyclon.shuffles", splay.StatTotal, 1, 0)
	res, err = churnComposed(t, 0, gossips, quiet).Run(context.Background())
	var aerr *splay.AssertionError
	if !errors.As(err, &aerr) || len(aerr.Failures) != 1 || aerr.Failures[0].Name != "quiet" {
		t.Errorf("Run with an impossible assertion: err = %v, want one *AssertionError failure (quiet)", err)
	}
	if res == nil || res.Metrics == nil {
		t.Error("the assertion error came without the Result that explains it")
	}
}

// TestScenarioChurnNeedsController: the trace owns who is up, so what
// acts on daemons or deploys through the controller is refused with one
// sentinel — fault-plan entries at Start, session calls when made.
func TestScenarioChurnNeedsController(t *testing.T) {
	t.Parallel()
	churn, err := splay.ChurnScript("at 1s join 4", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := splay.Scenario{
		Testbed: splay.Uniform(0, time.Millisecond, 0),
		Churn:   churn,
		Collect: splay.Collect{Metrics: true},
		Apps:    []splay.AppSpec{{Name: "held", App: holdApp}},
	}
	always := splay.Metric("", splay.StatNodes, splay.Above, -1)
	plans := map[string]splay.FaultPlan{
		"crash":   {Events: []splay.FaultEvent{splay.CrashAt(time.Second, 0.5)}},
		"restart": {Events: []splay.FaultEvent{splay.RestartAt(time.Second)}},
		"kill":    {Rules: []splay.TriggerRule{{Name: "k", When: always, Do: splay.TriggerAction{Kind: splay.ActKill, Count: 1}}}},
		"grow":    {Rules: []splay.TriggerRule{{Name: "g", When: always, Do: splay.TriggerAction{Kind: splay.ActGrow, Count: 1}}}},
	}
	for name, plan := range plans {
		sc.Faults = plan
		sess, err := sc.Start(context.Background())
		if !errors.Is(err, splay.ErrNoController) {
			t.Errorf("Start with a %s plan: err = %v, want ErrNoController", name, err)
		}
		if sess != nil {
			sess.Stop()
		}
	}
	sc.Faults = splay.FaultPlan{}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if _, err := sess.Deploy(sc.Apps[0]).Wait(); !errors.Is(err, splay.ErrNoController) {
		t.Errorf("Deploy: err = %v, want ErrNoController", err)
	}
	if err := sess.StopJob("job-1"); !errors.Is(err, splay.ErrNoController) {
		t.Errorf("StopJob: err = %v, want ErrNoController", err)
	}
	if _, err := sess.Host(splay.HostConfig{}); !errors.Is(err, splay.ErrNoController) {
		t.Errorf("Host: err = %v, want ErrNoController", err)
	}
}

// TestScenarioDuplicateAppName checks a duplicate registration surfaces
// as an error from Start instead of clobbering the first app.
func TestScenarioDuplicateAppName(t *testing.T) {
	t.Parallel()
	app := splay.AppFunc(func(env *splay.Env) error { return nil })
	sc := splay.Scenario{
		Testbed: splay.Uniform(2, time.Millisecond, 0),
		Apps: []splay.AppSpec{
			{Name: "dup", Nodes: 1, App: app},
			{Name: "dup", Nodes: 1, App: app},
		},
	}
	if _, err := sc.Start(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Start with duplicate app names: err = %v, want duplicate registration error", err)
	}
}

// TestScenarioBuiltinApps deploys the built-in chord application by name
// only — the quickstart shape — on a simulated testbed.
func TestScenarioBuiltinApps(t *testing.T) {
	t.Parallel()
	res, err := splay.Scenario{
		Testbed:  splay.Uniform(3, 2*time.Millisecond, 0),
		Apps:     []splay.AppSpec{{Name: "chord", Nodes: 2, Params: []byte(`{"bits":16}`)}},
		Duration: 5 * time.Second,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].State != splay.JobDone {
		t.Fatalf("job state = %s after Run, want done", res.Jobs[0].State)
	}
	if len(res.Jobs[0].Deployed) != 2 {
		t.Fatalf("deployed %v, want 2 instances", res.Jobs[0].Deployed)
	}
	bad := splay.Scenario{
		Testbed: splay.Uniform(2, time.Millisecond, 0),
		Apps:    []splay.AppSpec{{Name: "no-such-app", Nodes: 1}},
	}
	if _, err := bad.Start(context.Background()); err == nil {
		t.Fatal("unknown built-in accepted")
	}
}

// TestEveryCatalogAppTwice is the determinism invariant over the whole
// built-in catalog: each app, reporting and with its workload on, runs
// three times at one seed on the same simulated testbed, and every run
// must print the same log bytes and gather the same telemetry.
func TestEveryCatalogAppTwice(t *testing.T) {
	t.Parallel()
	for _, app := range splay.BuiltinCatalog().Apps() {
		params := map[string]any{}
		for _, p := range app.Params {
			switch p.Name {
			case "report", "originate":
				params[p.Name] = true
			case "lookups_per_min":
				params[p.Name] = 12
			}
		}
		raw, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for run := range 3 {
			var logs bytes.Buffer
			res, err := splay.Scenario{
				Seed:     1,
				Testbed:  splay.Uniform(16, 10*time.Millisecond, 0),
				Apps:     []splay.AppSpec{{Name: app.Name, Nodes: 12, Params: raw}},
				Collect:  splay.Collect{Metrics: true, ReportEvery: 2 * time.Second, Logs: &logs},
				Duration: time.Minute,
			}.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			got := fmt.Sprintf("%s%+v", logs.String(), res.Metrics.Snapshot())
			if run == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: run %d differs from run 0 at seed 1", app.Name, run)
				break
			}
		}
	}
}

// TestLiveStopLeavesNoRedial: every daemon redials a lost controller
// session, so a live Stop closes the daemons before the controller —
// the other order would start a redial on each of them. Run it under
// -race: the daemons' readers see their sessions end on goroutines of
// their own.
func TestLiveStopLeavesNoRedial(t *testing.T) {
	sess, err := splay.Scenario{Testbed: splay.Live(4)}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess.Stop()
	// A redial sleeps at least 100ms before it looks at Close again.
	time.Sleep(50 * time.Millisecond)
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if n := strings.Count(stacks, "daemon.(*Daemon).reconnectLoop"); n > 0 {
		t.Fatalf("%d daemons redial after Stop:\n%s", n, stacks)
	}
}
