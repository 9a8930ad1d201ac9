package controller

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// pingApp is a tiny deployable application: it answers RPC pings and, as
// position 1, counts greetings from the other instances.
func pingRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.MustRegister("pingapp", func(params json.RawMessage) (core.App, error) {
		return core.AppFunc(func(ctx *core.AppContext) error {
			srv := rpc.NewServer(ctx)
			greeted := 0
			srv.Register("greet", func(rpc.Args) (any, error) {
				greeted++
				return greeted, nil
			})
			if err := srv.Start(ctx.Job.Me.Port); err != nil {
				return err
			}
			if ctx.Job.Position > 1 && len(ctx.Job.Nodes) > 0 {
				cl := rpc.NewClient(ctx)
				cl.CallTimeout(ctx.Job.Nodes[0], 30*time.Second, "greet") //nolint:errcheck
			}
			for !ctx.Killed() {
				ctx.Sleep(time.Second)
			}
			return nil
		}), nil
	})
	return reg
}

type testbed struct {
	k       *sim.Kernel
	nw      *simnet.Network
	rt      *core.SimRuntime
	ctl     *Controller
	daemons []*daemon.Daemon
}

// newTestbed wires a controller on host 0 and n daemons on hosts 1..n.
func newTestbed(t *testing.T, n int) *testbed {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond}, n+1, 1)
	rt := core.NewSimRuntime(k, 1)
	tb := &testbed{k: k, nw: nw, rt: rt}
	reg := pingRegistry()
	tb.ctl = New(rt, nw.Node(0), DefaultConfig())
	k.Go(func() {
		if err := tb.ctl.Start(); err != nil {
			t.Errorf("controller: %v", err)
		}
	})
	ctlAddr := transport.Addr{Host: "n0", Port: DefaultConfig().Port}
	for i := 1; i <= n; i++ {
		d := daemon.New(rt, nw.Node(i), reg, daemon.DefaultConfig(simnet.HostName(i)), nil)
		tb.daemons = append(tb.daemons, d)
		k.GoAfter(time.Duration(i)*100*time.Millisecond, func() {
			if err := d.Connect(ctlAddr); err != nil {
				t.Errorf("daemon connect: %v", err)
			}
		})
	}
	k.RunFor(30 * time.Second)
	return tb
}

func TestDaemonsRegister(t *testing.T) {
	tb := newTestbed(t, 5)
	if tb.ctl.Daemons() != 5 {
		t.Fatalf("controller sees %d daemons, want 5", tb.ctl.Daemons())
	}
	for i, d := range tb.daemons {
		if !d.Connected() {
			t.Fatalf("daemon %d not connected", i)
		}
	}
}

func TestSubmitDeploysAndRuns(t *testing.T) {
	tb := newTestbed(t, 8)
	var job *JobStatus
	var err error
	tb.k.Go(func() {
		job, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 5})
	})
	tb.k.RunFor(2 * time.Minute)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.State != JobRunning {
		t.Fatalf("job state = %s", job.State)
	}
	if len(job.Deployed) != 5 {
		t.Fatalf("deployed on %d nodes", len(job.Deployed))
	}
	running := 0
	for _, d := range tb.daemons {
		running += d.Running()
	}
	if running != 5 {
		t.Fatalf("%d instances running, want 5 (supernumeraries freed)", running)
	}
	// Stop the job; instances die.
	tb.k.Go(func() {
		if err := tb.ctl.StopJob(job.ID); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	tb.k.RunFor(time.Minute)
	running = 0
	for _, d := range tb.daemons {
		running += d.Running()
	}
	if running != 0 {
		t.Fatalf("%d instances survive StopJob", running)
	}
}

// TestJobTableHoldsRunningJobsOnly: the controller remembers a job from
// JobRunning to StopJob. A stopped job and a deployment that failed with
// a *DeployError leave nothing in the table, and the failed one's caller
// still gets its status.
func TestJobTableHoldsRunningJobsOnly(t *testing.T) {
	tb := newTestbed(t, 4)
	held := func() int {
		tb.ctl.mu.Lock()
		defer tb.ctl.mu.Unlock()
		return len(tb.ctl.jobs)
	}
	var job, failed *JobStatus
	var err, ferr error
	tb.k.Go(func() {
		job, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 3})
		failed, ferr = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 9})
	})
	tb.k.RunFor(time.Minute)
	if err != nil || job.State != JobRunning {
		t.Fatalf("submit: %v (%+v)", err, job)
	}
	var derr *DeployError
	if !errors.As(ferr, &derr) || failed == nil || failed.State != JobFailed {
		t.Fatalf("a 9-node job on 4 daemons: %v (%+v), want a *DeployError and a failed status", ferr, failed)
	}
	if n := held(); n != 1 {
		t.Fatalf("the table holds %d jobs with one running, want 1", n)
	}
	tb.k.Go(func() {
		if err := tb.ctl.StopJob(job.ID); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	tb.k.RunFor(time.Minute)
	if n := held(); n != 0 {
		t.Fatalf("the table holds %d jobs once every job has stopped, want 0", n)
	}
}

func TestSubmitUnknownAppFails(t *testing.T) {
	tb := newTestbed(t, 4)
	var err error
	tb.k.Go(func() {
		_, err = tb.ctl.Submit(JobSpec{App: "no-such-app", Nodes: 2})
	})
	tb.k.RunFor(2 * time.Minute)
	if err == nil {
		t.Fatal("unknown app deployed")
	}
}

func TestSubmitTooFewDaemons(t *testing.T) {
	tb := newTestbed(t, 2)
	var err error
	tb.k.Go(func() {
		_, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 5})
	})
	tb.k.RunFor(time.Minute)
	if err == nil || !strings.Contains(err.Error(), "need 5 daemons") {
		t.Fatalf("err = %v", err)
	}
}

func TestSupersetSkipsDeadDaemons(t *testing.T) {
	tb := newTestbed(t, 8)
	// Kill three daemon hosts; with superset 2.0 the job still finds 4
	// responsive daemons.
	tb.k.Go(func() {
		for i := 1; i <= 3; i++ {
			tb.nw.Host(i).SetDown(true)
		}
	})
	var job *JobStatus
	var err error
	tb.k.GoAfter(time.Second, func() {
		job, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 4, Superset: 2.0})
	})
	tb.k.RunFor(5 * time.Minute)
	if err != nil {
		t.Fatalf("submit with failures: %v", err)
	}
	if job.State != JobRunning || len(job.Deployed) != 4 {
		t.Fatalf("job %s on %d nodes", job.State, len(job.Deployed))
	}
	for _, addr := range job.Deployed {
		id, _ := simnet.HostID(addr.Host)
		if id >= 1 && id <= 3 {
			t.Fatalf("deployed on dead daemon %s", addr.Host)
		}
	}
}

func TestBootstrapListReachesApps(t *testing.T) {
	// Position 2..n greet the rendez-vous node: the job's LIST machinery
	// must deliver job.nodes and job.position correctly.
	tb := newTestbed(t, 6)
	var job *JobStatus
	tb.k.Go(func() {
		job, _ = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 4})
	})
	tb.k.RunFor(3 * time.Minute)
	if job == nil || job.State != JobRunning {
		t.Fatal("job not running")
	}
	// The rendez-vous instance must have been greeted by the others;
	// verify via a direct RPC to it.
	greetTotal := -1
	tb.k.Go(func() {
		ctx := core.NewAppContext(tb.rt, tb.nw.Node(0), core.JobInfo{}, nil)
		cl := rpc.NewClient(ctx)
		res, err := cl.CallTimeout(job.Deployed[0], 30*time.Second, "greet")
		if err != nil {
			t.Errorf("probe greet: %v", err)
			return
		}
		res.Decode(&greetTotal) //nolint:errcheck
	})
	tb.k.RunFor(time.Minute)
	// 3 greetings from peers + our probe = 4.
	if greetTotal != 4 {
		t.Fatalf("rendez-vous greeted %d times, want 4", greetTotal)
	}
}

func TestBlacklistPropagation(t *testing.T) {
	tb := newTestbed(t, 3)
	tb.k.Go(func() {
		tb.ctl.SetBlacklist([]string{"evil-host"})
	})
	tb.k.RunFor(time.Minute)
	// Deploy; the instance's sandbox must refuse dialing the blacklisted
	// host and the controller itself.
	var job *JobStatus
	tb.k.Go(func() {
		job, _ = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 2})
	})
	tb.k.RunFor(2 * time.Minute)
	if job == nil || job.State != JobRunning {
		t.Fatal("job not running")
	}
}

// TestHelloFromAnotherHostEvictsNobody: a hello naming a registered
// daemon replaces its session only when it comes from that session's
// host. A stub on n2 claiming to be n1 gets its connection closed and n1
// keeps its session; a hello from n1's own host, as a restarted daemon
// sends, still replaces it.
func TestHelloFromAnotherHostEvictsNobody(t *testing.T) {
	tb := newTestbed(t, 2)
	name := simnet.HostName(1)
	before, ok := tb.ctl.reg.get(name)
	if !ok {
		t.Fatalf("%s never registered", name)
	}
	hello := func(from int) (welcomed bool) {
		stub, err := tb.nw.Node(from).Dial(tb.ctl.Addr(), time.Second)
		if err != nil {
			t.Error(err)
			return false
		}
		llenc.NewWriter(stub).Encode(&ctlproto.Msg{Type: ctlproto.THello, Name: name}) //nolint:errcheck
		var m ctlproto.Msg
		return llenc.NewReader(stub).Decode(&m) == nil && m.Type == ctlproto.TWelcome
	}

	var strangerWelcomed bool
	tb.k.Go(func() { strangerWelcomed = hello(2) })
	tb.k.RunFor(time.Second)
	if strangerWelcomed {
		t.Error("the controller welcomed a hello for n1 from n2")
	}
	if d, ok := tb.ctl.reg.get(name); !ok {
		t.Fatalf("%s lost its session", name)
	} else if d != before {
		t.Fatalf("%s's session was replaced (the registered one now comes from %s)", name, d.conn.RemoteAddr().Host)
	}
	if !tb.daemons[0].Connected() || tb.ctl.Daemons() != 2 {
		t.Fatalf("after the stranger's hello: %s connected %v, %d daemons, want true and 2",
			name, tb.daemons[0].Connected(), tb.ctl.Daemons())
	}

	var ownWelcomed bool
	tb.k.Go(func() { ownWelcomed = hello(1) })
	tb.k.RunFor(time.Second)
	if d, _ := tb.ctl.reg.get(name); !ownWelcomed || d == before {
		t.Fatalf("a hello from %s's own host was not accepted (welcomed %v)", name, ownWelcomed)
	}
}

// TestReregisterClearsBlacklist pins the revival contract: a daemon
// whose name was blacklisted (a fault-drill partition) and whose
// session died becomes immediately placeable when it redials — its
// stale blacklist entry is cleared and the shrunk list pushed to the
// fleet, without waiting for an operator heal.
func TestReregisterClearsBlacklist(t *testing.T) {
	tb := newTestbed(t, 3)
	tb.k.Go(func() {
		tb.ctl.SetBlacklist([]string{simnet.HostName(2)})
	})
	tb.k.RunFor(time.Minute)
	blacklisted := func() bool {
		tb.ctl.mu.Lock()
		defer tb.ctl.mu.Unlock()
		for _, pat := range tb.ctl.blacklist {
			if pat == simnet.HostName(2) {
				return true
			}
		}
		return false
	}
	if !blacklisted() {
		t.Fatal("partition did not blacklist the daemon")
	}
	// The partitioned daemon's session dies…
	if !tb.ctl.DropDaemon(simnet.HostName(2)) {
		t.Fatal("drop failed")
	}
	tb.k.RunFor(50 * time.Millisecond) // the first redial waits at least 100ms
	if got := tb.ctl.Daemons(); got != 2 {
		t.Fatalf("population = %d after drop, want 2", got)
	}
	// …and the daemon redials under its old name.
	tb.k.RunFor(time.Minute)
	if got := tb.ctl.Daemons(); got != 3 {
		t.Fatalf("population = %d after revival, want 3", got)
	}
	if blacklisted() {
		t.Fatal("revived daemon still blacklisted")
	}
	// The revived daemon is placeable right now: a full-population job
	// lands an instance on every daemon, including the revived one.
	var job *JobStatus
	tb.k.Go(func() {
		job, _ = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 3})
	})
	tb.k.RunFor(2 * time.Minute)
	if job == nil || job.State != JobRunning || len(job.Deployed) != 3 {
		t.Fatalf("job = %+v, want 3 instances running", job)
	}
}
