package splay_test

// Fault-plane tests: timed crash/restart through the scenario surface,
// the typed deploy error, and the live chaos smoke (daemon killed and
// revived mid-session on real sockets — run under -race in CI).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/rpc"
)

// holdApp keeps its instances alive until killed, so daemon crashes kill
// something real.
var holdApp = splay.AppFunc(func(env *splay.Env) error {
	env.RunUntilKilled()
	return nil
})

// TestScenarioFaultCrashRestart drives a timed crash of two daemons and
// a later restart through a simulated scenario, checking the population
// dips and recovers and the declared assertion passes.
func TestScenarioFaultCrashRestart(t *testing.T) {
	t.Parallel()
	sc := splay.Scenario{
		Seed:    5,
		Testbed: splay.Uniform(6, 2*time.Millisecond, 0),
		Collect: splay.Collect{Metrics: true, ReportEvery: time.Second},
		Faults: splay.FaultPlan{
			Events: []splay.FaultEvent{
				splay.CrashNAt(5*time.Second, 2),
				splay.RestartAt(20 * time.Second),
			},
		},
		Assert: []splay.Assertion{
			splay.EventuallyHolds("population-reports",
				splay.Metric("", splay.StatNodes, splay.Above, 3), 0),
		},
		Apps: []splay.AppSpec{{
			Name:  "ticker",
			Nodes: 4,
			App: splay.AppFunc(func(env *splay.Env) error {
				ticks := env.Metrics().Counter("app.ticks")
				if err := env.StartReporting(); err != nil {
					return err
				}
				env.Periodic(time.Second, func() { ticks.Inc() })
				env.RunUntilKilled()
				return nil
			}),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	job, err := sess.Deploy(sc.Apps[0]).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if job.State != splay.JobRunning {
		t.Fatalf("job state = %s, want running", job.State)
	}
	if err := sess.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	sess.RunFor(10 * time.Second) // crash applied at +5s
	if got := sess.Daemons(); got != 4 {
		t.Fatalf("daemons after crash = %d, want 4", got)
	}
	sess.RunFor(30 * time.Second) // restart at +20s; reconnects settle
	if got := sess.Daemons(); got != 6 {
		t.Fatalf("daemons after restart = %d, want 6", got)
	}
	if err := sess.CheckAssertions(); err != nil {
		t.Fatalf("assertions: %v", err)
	}
}

// TestScenarioDeployErrorTyped exhausts the population before deploying
// and checks the typed *DeployError surfaces through the scenario SDK.
func TestScenarioDeployErrorTyped(t *testing.T) {
	t.Parallel()
	sc := splay.Scenario{
		Seed:            3,
		Testbed:         splay.Uniform(3, 2*time.Millisecond, 0),
		RegisterTimeout: 5 * time.Second,
		Faults: splay.FaultPlan{
			Events: []splay.FaultEvent{splay.CrashNAt(time.Second, 2)},
		},
		Apps: []splay.AppSpec{{Name: "holder", Nodes: 3, App: holdApp}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if err := sess.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	sess.RunFor(10 * time.Second)
	if got := sess.Daemons(); got != 1 {
		t.Fatalf("daemons after crash = %d, want 1", got)
	}
	job, err := sess.Deploy(sc.Apps[0]).Wait()
	if err == nil {
		t.Fatal("deployment on an exhausted population succeeded")
	}
	var derr *splay.DeployError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %T (%v), want *splay.DeployError", err, err)
	}
	if derr.Missing < 1 {
		t.Fatalf("DeployError.Missing = %d, want ≥ 1", derr.Missing)
	}
	if job == nil || job.State != splay.JobFailed {
		t.Fatalf("job = %+v, want failed state", job)
	}
}

// TestLiveChaosReconnectAndReplace is the live chaos smoke: on real
// loopback sockets, the fault plan kills a daemon mid-session and later
// revives it. The controller must drop the dead session, a fresh
// deployment must place onto the healthy remainder, and the revived
// daemon must reconnect — all while the first job keeps running.
func TestLiveChaosReconnectAndReplace(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	sc := splay.Scenario{
		Seed:    9,
		Testbed: splay.Live(4),
		Faults: splay.FaultPlan{
			Events: []splay.FaultEvent{
				splay.CrashNAt(500*time.Millisecond, 1),
				splay.RestartAt(2500 * time.Millisecond),
			},
		},
		Apps: []splay.AppSpec{{Name: "holder", Nodes: 2, App: holdApp}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	job, err := sess.Deploy(sc.Apps[0]).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if job.State != splay.JobRunning {
		t.Fatalf("job state = %s, want running", job.State)
	}
	if err := sess.ArmFaults(); err != nil {
		t.Fatal(err)
	}

	waitDaemons := func(want int, deadline time.Duration, phase string) {
		t.Helper()
		end := time.Now().Add(deadline)
		for sess.Daemons() != want {
			if time.Now().After(end) {
				t.Fatalf("%s: daemons = %d after %s, want %d", phase, sess.Daemons(), deadline, want)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitDaemons(3, 5*time.Second, "crash")

	// Deploy against the degraded population: selection and placement
	// must land entirely on the healthy daemons.
	job2, err := sess.Deploy(splay.AppSpec{Name: "holder", Nodes: 3}).Wait()
	if err != nil {
		t.Fatalf("deploy on degraded population: %v", err)
	}
	if job2.State != splay.JobRunning || len(job2.Deployed) != 3 {
		t.Fatalf("job2 %s on %d nodes, want running on 3", job2.State, len(job2.Deployed))
	}

	waitDaemons(4, 15*time.Second, "restart")
	if err := sess.CheckAssertions(); err != nil {
		t.Fatal(err)
	}
}

// chordOnBridge is Chord as an SDK application builds it: the protocol
// library on the Env's engine context, its instruments on the Env's
// registry. It mirrors the by-name built-in's body.
var chordOnBridge = splay.AppFunc(func(env *splay.Env) error {
	n, err := chord.New(env.AppContext(), chord.DefaultConfig())
	if err != nil {
		return err
	}
	n.SetInstruments(chord.NewInstruments(env.Metrics()))
	n.SetRPCInstruments(rpc.NewInstruments(env.Metrics()))
	if err := n.Start(); err != nil {
		return err
	}
	if err := env.StartReporting(); err != nil {
		return err
	}
	job := env.Job()
	env.Sleep(time.Duration(job.Position) * time.Second)
	if job.Position > 1 && len(job.Nodes) > 0 {
		n.Join(job.Nodes[0]) //nolint:errcheck // stabilization repairs a missed join
	}
	n.StartMaintenance()
	env.Periodic(2*time.Second, func() { n.Lookup(env.Rand().Uint64()) }) //nolint:errcheck // counted by the instruments
	env.RunUntilKilled()
	n.Stop()
	return nil
})

// TestScenarioRPCFaultBindsEveryClient: an rpc-fault event reaches the
// RPC clients protocol libraries build on the engine context — the by-name
// built-in's and an SDK application's on env.AppContext() alike — not only
// clients made by Env.NewRPCClient. Dropping every request makes calls
// time out and lookups fail; clearing the filter lets lookups succeed
// again.
func TestScenarioRPCFaultBindsEveryClient(t *testing.T) {
	t.Parallel()
	for name, spec := range map[string]splay.AppSpec{
		"by-name": {Name: "chord", Nodes: 10, Params: []byte(`{"lookups_per_min":30,"report":true}`)},
		"bridge":  {Name: "sdk-chord", Nodes: 10, App: chordOnBridge},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := splay.Scenario{
				Seed:    11,
				Testbed: splay.Uniform(12, 10*time.Millisecond, 0),
				Collect: splay.Collect{Metrics: true},
				Faults: splay.FaultPlan{Events: []splay.FaultEvent{
					splay.RPCFaultAt(40*time.Second, "", 1.0, 0),
					splay.RPCClearAt(5 * time.Minute),
				}},
				Apps: []splay.AppSpec{spec},
			}
			sess, err := sc.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Stop()
			if _, err := sess.Deploy(spec).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := sess.ArmFaults(); err != nil {
				t.Fatal(err)
			}
			tel := sess.Telemetry()
			succeeded := func() uint64 { n, _ := tel.HistStats("chord.hops"); return n }

			sess.RunFor(35 * time.Second)
			if tel.Counter("rpc.timeouts") != 0 || tel.Counter("chord.failed_lookups") != 0 || succeeded() == 0 {
				t.Fatalf("before the fault: %d timeouts, %d failed lookups, %d succeeded",
					tel.Counter("rpc.timeouts"), tel.Counter("chord.failed_lookups"), succeeded())
			}
			sess.RunFor(5 * time.Minute) // fault at +40s, clear at +5m
			timeouts, failed, before := tel.Counter("rpc.timeouts"), tel.Counter("chord.failed_lookups"), succeeded()
			t.Logf("at the clear: %d rpc.calls, %d rpc.timeouts, %d chord.lookups, %d failed, %d succeeded",
				tel.Counter("rpc.calls"), timeouts, tel.Counter("chord.lookups"), failed, before)
			if timeouts == 0 || failed == 0 {
				t.Fatalf("under drop=1.0: %d rpc.timeouts, %d chord.failed_lookups; the filter missed the protocol's client",
					timeouts, failed)
			}
			sess.RunFor(10 * time.Minute)
			if after := succeeded(); after <= before {
				t.Fatalf("after the clear: %d lookups succeeded, %d before it", after, before)
			}
		})
	}
}

// TestPlanesWorkerNeutralityPartitioned is invariant 9 across every plane
// at once: a 2,048-host testbed that collects metrics and logs, runs a plan
// with every event kind, a grow rule and assertions provisions two kernel
// partitions, and Workers 1, 2 and 4 give the same firings at the same
// times, the same assertion verdicts, the same telemetry — every counter,
// every series percentile — the same population, the same network bytes
// and the same log bytes. Logging is schedule-neutral (invariant 6): a
// logs-off run gives the same fingerprint.
func TestPlanesWorkerNeutralityPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-host population, four runs")
	}
	run := func(workers int, logs io.Writer) string {
		spec := splay.AppSpec{Name: "chord", Nodes: 32,
			Params: []byte(`{"fault_tolerant":true,"lookups_per_min":30,"report":true}`)}
		sc := splay.Scenario{
			Seed:    17,
			Workers: workers,
			Testbed: splay.Uniform(2046, 20*time.Millisecond, 0),
			Apps:    []splay.AppSpec{spec},
			Collect: splay.Collect{Metrics: true, ReportEvery: 2 * time.Second, Logs: logs},
			Faults: splay.FaultPlan{
				Events: []splay.FaultEvent{
					splay.CrashAt(10*time.Second, 0.05),
					splay.RestartAt(20 * time.Second),
					splay.PartitionAt(30*time.Second, 0.3),
					splay.HealAt(45 * time.Second),
					splay.DegradeAt(50*time.Second, 40*time.Millisecond, 0.1),
					splay.RestoreAt(65 * time.Second),
					splay.RPCFaultAt(70*time.Second, "", 0.3, 10*time.Millisecond),
					splay.RPCClearAt(85 * time.Second),
				},
				Rules: []splay.TriggerRule{{
					Name: "grow-once-reporting",
					When: splay.Metric("chord.lookups", splay.StatTotal, splay.Above, 0),
					Do:   splay.TriggerAction{Kind: splay.ActGrow, Count: 4},
				}},
				EvalEvery: 2 * time.Second,
			},
			Assert: []splay.Assertion{
				splay.EventuallyHolds("lookups-flow", splay.Metric("chord.lookups", splay.StatTotal, splay.Above, 0), 0),
				splay.StaysBelow("never-fails", "chord.failed_lookups", splay.StatTotal, 1, 0),
			},
		}
		sess, err := sc.Start(context.Background())
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
		armAt := sess.Now()
		if err := sess.ArmFaults(); err != nil {
			t.Fatal(err)
		}
		sess.RunFor(100 * time.Second)
		var sb strings.Builder
		for _, f := range sess.Firings() {
			fmt.Fprintf(&sb, "firing %s at +%s: %s\n", f.Rule, f.At.Sub(armAt), f.Action)
		}
		fmt.Fprintf(&sb, "assertions: %v\n", sess.CheckAssertions())
		fmt.Fprintf(&sb, "daemons %d, net bytes %d, now %s\n", sess.Daemons(), sess.NetBytes(), sess.Now())
		tel := sess.Telemetry()
		frames, bytes := tel.Received()
		fmt.Fprintf(&sb, "telemetry: %d nodes, %d frames, %d bytes\n", tel.Nodes(), frames, bytes)
		for _, s := range tel.Snapshot() {
			fmt.Fprintf(&sb, "%+v\n", s)
		}
		return sb.String()
	}
	var refLogs strings.Builder
	ref := run(1, &refLogs)
	t.Logf("workers=1:\n%s", ref)
	t.Logf("workers=1: %d log lines", strings.Count(refLogs.String(), "\n"))
	for _, want := range []string{"firing grow-once-reporting", "never-fails", "chord.failed_lookups", "rpc.timeouts", "daemon.commands"} {
		if !strings.Contains(ref, want) {
			t.Errorf("the run never exercised %q", want)
		}
	}
	for _, want := range []string{"started job-", "faults: crashed daemon", "reconnected to controller"} {
		if !strings.Contains(refLogs.String(), want) {
			t.Errorf("no log line contains %q", want)
		}
	}
	for _, w := range []int{2, 4} {
		var logs strings.Builder
		if got := run(w, &logs); got != ref {
			t.Errorf("workers=%d changed the result:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, ref, w, got)
		}
		if logs.String() != refLogs.String() {
			t.Errorf("workers=%d changed the log bytes (%d vs %d at workers=1)", w, logs.Len(), refLogs.Len())
		}
	}
	if got := run(2, nil); got != ref {
		t.Errorf("collecting logs changed the result:\n--- logs ---\n%s\n--- no logs ---\n%s", ref, got)
	}
}
