package splay_test

// Fault-plane tests: timed crash/restart through the scenario surface,
// the typed deploy error, and the live chaos smoke (daemon killed and
// revived mid-session on real sockets — run under -race in CI).

import (
	"context"
	"errors"
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
