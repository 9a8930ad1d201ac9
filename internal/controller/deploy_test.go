package controller

import (
	"errors"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/simnet"
)

// TestReplacementAfterStartLoss kills a selected daemon's host between
// selection and START; the deployment re-places the lost slot onto a
// fresh daemon and still reaches JobRunning with the full count.
func TestReplacementAfterStartLoss(t *testing.T) {
	tb := newTestbed(t, 10)
	// Superset 1.0: exactly 5 daemons probed, no spares — any loss after
	// selection forces a re-placement round.
	var job *JobStatus
	var err error
	var ranked []*daemonSession
	tb.k.Go(func() {
		ranked, _ = tb.ctl.reg.fastest(10, nil)
		job, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 5, Superset: 1.001})
	})
	// The REGISTER round completes within one RTT batch; kill one of the
	// fastest (= lowest-index connect) daemons right after it is selected
	// but before its START can be served. Half an RTT after submission the
	// REGISTER frames are still in flight, so killing at 5ms lands between
	// REGISTER delivery and the LIST/START rounds for some schedules, and
	// before REGISTER for others — both exercise re-placement.
	tb.k.GoAfter(40*time.Millisecond, func() {
		tb.nw.Host(1).SetDown(true)
	})
	tb.k.RunFor(5 * time.Minute)
	if err != nil {
		t.Fatalf("submit with mid-deploy loss: %v", err)
	}
	if job.State != JobRunning || len(job.Deployed) != 5 {
		t.Fatalf("job %s on %d nodes, want running on 5", job.State, len(job.Deployed))
	}
	// The lost slot goes to the fastest daemon the first probe left out.
	want := map[string]bool{}
	for _, d := range ranked[:6] {
		want[d.name] = true
	}
	delete(want, simnet.HostName(1))
	if len(want) != 5 || ranked[5].name == simnet.HostName(1) {
		t.Fatalf("the killed daemon was not in the first probe of %v", want)
	}
	for _, addr := range job.Deployed {
		if !want[addr.Host] {
			t.Fatalf("deployed on %s, want the five fastest live daemons %v", addr.Host, want)
		}
	}
	// Count running instances on live hosts only: the dead daemon object
	// still remembers its registered job, but its host is gone.
	running := 0
	for i, d := range tb.daemons {
		if tb.nw.Host(i + 1).Down() {
			continue
		}
		running += d.Running()
	}
	if running != 5 {
		t.Fatalf("%d instances running on live daemons, want 5", running)
	}
}

// TestDeployErrorEnumeratesFailures exhausts the population so
// re-placement cannot succeed, and checks the typed error reports the
// unfilled slots rather than one latched first error.
func TestDeployErrorEnumeratesFailures(t *testing.T) {
	tb := newTestbed(t, 5)
	var err error
	tb.k.Go(func() {
		_, err = tb.ctl.Submit(JobSpec{App: "pingapp", Nodes: 4, Superset: 1.001})
	})
	// Kill two selected daemons mid-deployment; only one spare daemon
	// exists, so at least one slot stays unfilled.
	tb.k.GoAfter(40*time.Millisecond, func() {
		tb.nw.Host(1).SetDown(true)
		tb.nw.Host(2).SetDown(true)
	})
	tb.k.RunFor(10 * time.Minute)
	if err == nil {
		t.Fatal("deployment succeeded with an exhausted population")
	}
	var derr *DeployError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %T (%v), want *DeployError", err, err)
	}
	if derr.Missing < 1 {
		t.Fatalf("DeployError.Missing = %d, want ≥ 1", derr.Missing)
	}
	if len(derr.Failures) == 0 {
		t.Fatal("DeployError carries no per-daemon failures")
	}
}

// TestDropDaemonTriggersReconnect drops a daemon's session
// controller-side and checks it comes back with backoff.
func TestDropDaemonTriggersReconnect(t *testing.T) {
	tb := newTestbed(t, 3)
	name := simnet.HostName(1)
	tb.k.Go(func() {
		if !tb.ctl.DropDaemon(name) {
			t.Errorf("DropDaemon(%s) found no session", name)
		}
		if tb.ctl.DropDaemon("n99") {
			t.Error("DropDaemon invented a session")
		}
	})
	tb.k.RunFor(50 * time.Millisecond) // the first redial waits at least 100ms
	if tb.ctl.Daemons() != 2 {
		t.Fatalf("%d daemons connected after drop, want 2", tb.ctl.Daemons())
	}
	if got := len(tb.ctl.DaemonNames()); got != 2 {
		t.Fatalf("DaemonNames reports %d, want 2", got)
	}
	tb.k.RunFor(time.Minute)
	if tb.ctl.Daemons() != 3 || !tb.daemons[0].Connected() {
		t.Fatalf("%d daemons connected a minute after the drop (%s connected: %v), want 3",
			tb.ctl.Daemons(), name, tb.daemons[0].Connected())
	}
}
