package hosting

// Hosting-plane tests on a shared simulated fleet: multi-tenant
// placement, deterministic fair share, quota/auth rejection as typed
// errors (never a hang — everything runs in bounded virtual time),
// kill semantics, and re-placement after the population churns.

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// sleepRegistry registers one deployable app that idles until killed.
func sleepRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.MustRegister("sleeper", func(params json.RawMessage) (core.App, error) {
		return core.AppFunc(func(ctx *core.AppContext) error {
			for !ctx.Killed() {
				ctx.Sleep(time.Second)
			}
			return nil
		}), nil
	})
	return reg
}

type simFleet struct {
	k   *sim.Kernel
	nw  *simnet.Network
	rt  *core.SimRuntime
	ctl *controller.Controller
	ds  []*daemon.Daemon // on hosts 1..n
}

// newSimFleet wires a controller on host 0 and n daemons on hosts 1..n,
// runs until everyone registered, and returns the fleet. Like every
// daemon, they redial a dropped control session with backoff.
func newSimFleet(t *testing.T, n int) *simFleet {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond}, n+1, 1)
	rt := core.NewSimRuntime(k, 1)
	reg := sleepRegistry()
	ctl := controller.New(rt, nw.Node(0), controller.DefaultConfig())
	k.Go(func() {
		if err := ctl.Start(); err != nil {
			t.Errorf("controller: %v", err)
		}
	})
	ctlAddr := transport.Addr{Host: "n0", Port: controller.DefaultConfig().Port}
	fl := &simFleet{k: k, nw: nw, rt: rt, ctl: ctl}
	for i := 1; i <= n; i++ {
		d := daemon.New(rt, nw.Node(i), reg, daemon.DefaultConfig(simnet.HostName(i)), nil)
		fl.ds = append(fl.ds, d)
		k.GoAfter(time.Duration(i)*100*time.Millisecond, func() {
			if err := d.Connect(ctlAddr); err != nil {
				t.Errorf("daemon connect: %v", err)
			}
		})
	}
	k.RunFor(30 * time.Second)
	if got := ctl.Daemons(); got != n {
		t.Fatalf("fleet has %d daemons, want %d", got, n)
	}
	return fl
}

// registered counts the instances the fleet's daemons hold, reserved or
// running.
func (fl *simFleet) registered() int {
	n := 0
	for _, d := range fl.ds {
		n += d.Running()
	}
	return n
}

// scenarioJSON builds a minimal serialized scenario for submission.
func scenarioJSON(name string, nodes int, dur time.Duration) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"apps":[{"app":"sleeper","nodes":%d}],"duration_ns":%d}`,
		name, nodes, dur))
}

// code unwraps the typed error every hosting operation must return.
func code(t *testing.T, err error) ErrorCode {
	t.Helper()
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	return jerr.Code
}

// TestMultiTenantPlacement runs two tenants' overlapping jobs on one
// shared fleet and checks both place, both finish, and usage
// accounting tracks the overlap.
func TestMultiTenantPlacement(t *testing.T) {
	fl := newSimFleet(t, 12)
	svc := New(fl.rt, fl.ctl, Config{})
	for _, ten := range []Tenant{
		{Name: "alice", Key: "ka"},
		{Name: "bob", Key: "kb"},
	} {
		if err := svc.AddTenant(ten); err != nil {
			t.Fatal(err)
		}
	}

	var av, bv JobView
	fl.k.Go(func() {
		var err error
		if av, err = svc.Submit("ka", scenarioJSON("a", 4, 20*time.Second)); err != nil {
			t.Errorf("alice submit: %v", err)
		}
		if bv, err = svc.Submit("kb", scenarioJSON("b", 5, 20*time.Second)); err != nil {
			t.Errorf("bob submit: %v", err)
		}
	})
	fl.k.RunFor(10 * time.Second)

	// Mid-run: both jobs hold nodes at once on the shared fleet.
	au, err := svc.Usage("ka", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bu, err := svc.Usage("kb", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if au.RunningNodes != 4 || bu.RunningNodes != 5 {
		t.Fatalf("mid-run nodes alice=%d bob=%d, want 4 and 5", au.RunningNodes, bu.RunningNodes)
	}

	fl.k.RunFor(time.Minute)
	for _, probe := range []struct{ key, id string }{{"ka", av.ID}, {"kb", bv.ID}} {
		res, err := svc.Result(probe.key, probe.id)
		if err != nil {
			t.Fatalf("result %s: %v", probe.id, err)
		}
		if res.State != Done {
			t.Errorf("job %s state = %s, want done", probe.id, res.State)
		}
		if len(res.Apps) != 1 || res.Apps[0].Deployed != res.Apps[0].Nodes {
			t.Errorf("job %s placed %+v", probe.id, res.Apps)
		}
	}

	// Tenants cannot see each other's jobs.
	if _, err := svc.Job("kb", av.ID); code(t, err) != ErrUnknownJob {
		t.Errorf("cross-tenant job read: %v", err)
	}
	if _, err := svc.Usage("kb", "alice"); code(t, err) != ErrAuth {
		t.Errorf("cross-tenant usage read: %v", err)
	}
}

// TestQuotaAndAuthTypedErrors pins every admission failure to a typed
// *JobError returned synchronously — quota exhaustion must reject, not
// hang.
func TestQuotaAndAuthTypedErrors(t *testing.T) {
	fl := newSimFleet(t, 8)
	svc := New(fl.rt, fl.ctl, Config{})
	if err := svc.AddTenant(Tenant{Name: "carol", Key: "kc",
		Quota: Quota{MaxNodes: 4, MaxQueued: 1}}); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Submit("wrong", scenarioJSON("x", 1, time.Second)); code(t, err) != ErrAuth {
		t.Errorf("bad key: %v", err)
	}
	if _, err := svc.Submit("kc", scenarioJSON("big", 5, time.Second)); code(t, err) != ErrQuota {
		t.Errorf("over MaxNodes: %v", err)
	}
	if _, err := svc.Submit("kc", scenarioJSON("huge", 100, time.Second)); code(t, err) != ErrCapacity {
		t.Errorf("over platform capacity: %v", err)
	}
	if _, err := svc.Submit("kc", []byte(`{"apps":[]}`)); code(t, err) != ErrBadScenario {
		t.Errorf("empty scenario: %v", err)
	}
	if _, err := svc.Job("kc", "j999"); code(t, err) != ErrUnknownJob {
		t.Errorf("unknown job: %v", err)
	}

	// Fill the 4-node running quota, then the 1-slot queue; the next
	// submission is quota-rejected immediately.
	fl.k.Go(func() {
		if _, err := svc.Submit("kc", scenarioJSON("run", 4, time.Minute)); err != nil {
			t.Errorf("first job: %v", err)
		}
		if _, err := svc.Submit("kc", scenarioJSON("waits", 4, time.Minute)); err != nil {
			t.Errorf("queued job: %v", err)
		}
		if _, err := svc.Submit("kc", scenarioJSON("spills", 4, time.Minute)); code(t, err) != ErrQuota {
			t.Errorf("queue overflow: %v", err)
		}
	})
	fl.k.RunFor(10 * time.Second)

	u, err := svc.Usage("kc", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if u.RunningJobs != 1 || u.QueuedJobs != 1 {
		t.Fatalf("usage = %+v, want 1 running / 1 queued", u)
	}
}

// TestFairSharePlacement floods the queue from one tenant and checks a
// later-arriving tenant's job is placed ahead of the backlog: next slot
// goes to the tenant with the fewest placed nodes.
func TestFairSharePlacement(t *testing.T) {
	fl := newSimFleet(t, 10)
	svc := New(fl.rt, fl.ctl, Config{Capacity: 6})
	for _, ten := range []Tenant{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb"}} {
		if err := svc.AddTenant(ten); err != nil {
			t.Fatal(err)
		}
	}

	ids := make(map[string]string)
	fl.k.Go(func() {
		for i := 0; i < 4; i++ {
			v, err := svc.Submit("ka", scenarioJSON(fmt.Sprintf("a%d", i), 3, 15*time.Second))
			if err != nil {
				t.Errorf("alice submit %d: %v", i, err)
				return
			}
			ids[fmt.Sprintf("a%d", i)] = v.ID
		}
	})
	fl.k.GoAfter(2*time.Second, func() {
		v, err := svc.Submit("kb", scenarioJSON("b0", 3, 15*time.Second))
		if err != nil {
			t.Errorf("bob submit: %v", err)
			return
		}
		ids["b0"] = v.ID
	})
	fl.k.RunFor(3 * time.Minute)

	wait := func(key, name string) time.Duration {
		res, err := svc.Result(key, ids[name])
		if err != nil {
			t.Fatalf("result %s: %v", name, err)
		}
		if res.State != Done {
			t.Fatalf("job %s state = %s, want done (no starvation)", name, res.State)
		}
		return res.QueueWaitNS
	}
	bobWait := wait("kb", "b0")
	// Bob arrived behind alice's a2 and a3 but holds fewer nodes, so his
	// job overtakes her backlog.
	if a2 := wait("ka", "a2"); bobWait >= a2 {
		t.Errorf("bob waited %v, alice's third job %v — fair share should place bob first", bobWait, a2)
	}
	if a3 := wait("ka", "a3"); bobWait >= a3 {
		t.Errorf("bob waited %v, alice's fourth job %v", bobWait, a3)
	}
}

// TestKillLifecycle kills a running job and a queued job and checks
// both settle as killed with their nodes returned.
func TestKillLifecycle(t *testing.T) {
	fl := newSimFleet(t, 6)
	svc := New(fl.rt, fl.ctl, Config{Capacity: 4})
	if err := svc.AddTenant(Tenant{Name: "dave", Key: "kd"}); err != nil {
		t.Fatal(err)
	}
	var run, queued JobView
	fl.k.Go(func() {
		var err error
		if run, err = svc.Submit("kd", scenarioJSON("r", 4, time.Hour)); err != nil {
			t.Errorf("submit: %v", err)
		}
		if queued, err = svc.Submit("kd", scenarioJSON("q", 4, time.Hour)); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	fl.k.RunFor(10 * time.Second)

	if err := svc.Kill("kd", queued.ID); err != nil {
		t.Fatalf("kill queued: %v", err)
	}
	fl.k.Go(func() {
		if err := svc.Kill("kd", run.ID); err != nil {
			t.Errorf("kill running: %v", err)
		}
	})
	fl.k.RunFor(30 * time.Second)

	for _, id := range []string{run.ID, queued.ID} {
		res, err := svc.Result("kd", id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		if res.State != Killed {
			t.Errorf("job %s state = %s, want killed", id, res.State)
		}
	}
	u, err := svc.Usage("kd", "dave")
	if err != nil {
		t.Fatal(err)
	}
	if u.RunningJobs != 0 || u.RunningNodes != 0 || u.QueuedJobs != 0 {
		t.Fatalf("post-kill usage = %+v, want all zero", u)
	}
}

// TestFinishedJobHoldsItsNodesUntilStopped: a job that is done keeps its
// nodes until its instances have stopped. The platform fits one job; A
// runs and B waits. A's daemons' links slow down while A runs, so the
// fleet's fastest daemons are others and A's STOP round is long. While
// it is in flight, a second tenant's submission runs a dispatch, which
// must not place B yet: at no sampled instant may the daemons hold more
// instances than the platform's capacity.
func TestFinishedJobHoldsItsNodesUntilStopped(t *testing.T) {
	fl := newSimFleet(t, 4)
	const capacity = 2
	svc := New(fl.rt, fl.ctl, Config{Capacity: capacity})
	for _, ten := range []Tenant{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb"}} {
		if err := svc.AddTenant(ten); err != nil {
			t.Fatal(err)
		}
	}
	var a, b, c JobView
	fl.k.Go(func() {
		var err error
		if a, err = svc.Submit("ka", scenarioJSON("a", capacity, 40*time.Second)); err != nil {
			t.Errorf("submit a: %v", err)
		}
		if b, err = svc.Submit("ka", scenarioJSON("b", capacity, 5*time.Second)); err != nil {
			t.Errorf("submit b: %v", err)
		}
	})
	fl.k.RunFor(time.Second)
	slow := make([]bool, len(fl.ds)+1)
	for i, d := range fl.ds {
		slow[i+1] = d.Running() > 0 // A's daemons
	}
	fl.nw.Degrade(0, slow, 100*time.Millisecond, 0)

	peak, inStop := 0, false
	fl.k.Go(func() {
		for range 90_000 {
			peak = max(peak, fl.registered())
			if v, err := svc.Job("ka", a.ID); !inStop && err == nil && v.State == Done {
				inStop = true // A reads done; its STOP round is in flight
				if c, err = svc.Submit("kb", scenarioJSON("c", capacity, 5*time.Second)); err != nil {
					t.Errorf("submit c: %v", err)
				}
			}
			fl.k.Sleep(time.Millisecond)
		}
	})
	fl.k.RunFor(90 * time.Second)
	if !inStop {
		t.Fatal("job a never finished")
	}
	if peak > capacity {
		t.Errorf("the daemons held %d instances at once on a platform of %d", peak, capacity)
	}
	for _, p := range []struct{ key, id string }{{"ka", a.ID}, {"ka", b.ID}, {"kb", c.ID}} {
		if res, err := svc.Result(p.key, p.id); err != nil || res.State != Done {
			t.Errorf("job %s: %+v, %v; want done", p.id, res, err)
		}
	}
}

// TestKilledQueuedJobLeavesTheQueue: a job killed while it waits leaves
// the live list, and no trace in its spare capacity, where it would stay
// reachable until the next submission overwrote the slot.
func TestKilledQueuedJobLeavesTheQueue(t *testing.T) {
	fl := newSimFleet(t, 4)
	svc := New(fl.rt, fl.ctl, Config{Capacity: 4})
	if err := svc.AddTenant(Tenant{Name: "erin", Key: "ke"}); err != nil {
		t.Fatal(err)
	}
	var queued JobView
	fl.k.Go(func() {
		var err error
		if _, err = svc.Submit("ke", scenarioJSON("r", 4, time.Hour)); err != nil {
			t.Errorf("submit: %v", err)
		}
		if queued, err = svc.Submit("ke", scenarioJSON("q", 4, time.Hour)); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	fl.k.RunFor(10 * time.Second)
	if err := svc.Kill("ke", queued.ID); err != nil {
		t.Fatalf("kill queued: %v", err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if q := svc.tally(nil).queued; q != 0 {
		t.Fatalf("%d jobs queued after the kill", q)
	}
	for i, j := range svc.live[:cap(svc.live)] {
		if j != nil && j.id == queued.ID {
			t.Errorf("live slot %d (of %d in use) still holds the killed job %s", i, len(svc.live), j.id)
		}
	}
}

// TestRequeueAfterChurn places a job that cannot fit the initial
// population, lets more daemons register, and checks the re-placement
// machinery lands it — the hosted state machine survives daemon churn.
func TestRequeueAfterChurn(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond}, 9, 1)
	rt := core.NewSimRuntime(k, 1)
	reg := sleepRegistry()
	ctl := controller.New(rt, nw.Node(0), controller.DefaultConfig())
	k.Go(func() {
		if err := ctl.Start(); err != nil {
			t.Errorf("controller: %v", err)
		}
	})
	ctlAddr := transport.Addr{Host: "n0", Port: controller.DefaultConfig().Port}
	connect := func(i int, after time.Duration) {
		d := daemon.New(rt, nw.Node(i), reg, daemon.DefaultConfig(simnet.HostName(i)), nil)
		k.GoAfter(after, func() {
			if err := d.Connect(ctlAddr); err != nil {
				t.Errorf("daemon connect: %v", err)
			}
		})
	}
	for i := 1; i <= 3; i++ { // too few for a 6-node job
		connect(i, time.Duration(i)*100*time.Millisecond)
	}
	for i := 4; i <= 8; i++ { // the reinforcements, after the first attempt failed
		connect(i, 2*time.Second+time.Duration(i)*50*time.Millisecond)
	}

	svc := New(rt, ctl, Config{Capacity: 8})
	if err := svc.AddTenant(Tenant{Name: "erin", Key: "ke"}); err != nil {
		t.Fatal(err)
	}
	var jv JobView
	k.GoAfter(2*time.Second, func() {
		var err error
		if jv, err = svc.Submit("ke", scenarioJSON("churny", 6, 10*time.Second)); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	k.RunFor(3 * time.Minute)

	res, err := svc.Result("ke", jv.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.State != Done {
		t.Fatalf("job state = %s (%s), want done after the population recovered", res.State, res.Error)
	}
	if res.Apps[0].Deployed != 6 {
		t.Fatalf("placed %d instances, want 6", res.Apps[0].Deployed)
	}
	if n := svc.jobs[jv.ID].attempts; n != 1 {
		t.Errorf("%d failed placements before the job landed, want 1 (too few daemons at first)", n)
	}
}
