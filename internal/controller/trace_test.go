package controller

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames.golden from the current controller")

const framesGolden = "testdata/frames.golden"

// frameLog is a control-plane traffic capture: one line per message the
// network delivers, plus the job statuses and error texts the cases report.
type frameLog struct{ b strings.Builder }

// watch installs the capture on tb's network. Every delivery appends
// (virtual ns, receiving host, bytes) and keeps its instant, except that
// deliveries to host slow are held back by lag (slow < 0 holds none).
func (l *frameLog) watch(tb *testbed, slow int, lag time.Duration) {
	tb.nw.SetProcDelay(func(host, size int) time.Duration {
		fmt.Fprintf(&l.b, "%d h%d %d\n", tb.k.Since().Nanoseconds(), host, size)
		if host == slow {
			return lag
		}
		return 0
	})
}

func (l *frameLog) printf(format string, args ...any) { fmt.Fprintf(&l.b, format+"\n", args...) }

func (l *frameLog) job(job *JobStatus, err error) {
	if job != nil {
		l.printf("job %s %s %v", job.ID, job.State, job.Deployed)
	}
	if err != nil {
		l.printf("error %q", err.Error())
	}
}

// submit runs one Submit on tb for d of virtual time and logs its outcome.
func (l *frameLog) submit(tb *testbed, spec JobSpec, d time.Duration) *JobStatus {
	var job *JobStatus
	var err error
	tb.k.Go(func() { job, err = tb.ctl.Submit(spec) })
	tb.k.RunFor(d)
	l.job(job, err)
	return job
}

func runningSum(tb *testbed) int {
	n := 0
	for _, d := range tb.daemons {
		n += d.Running()
	}
	return n
}

// frameCases drive every way the controller waits on the fleet: a
// superset deploy whose spares are FREEd, a REGISTER ack that arrives
// after selection closed, a START loss re-placed onto a fresh daemon, a
// re-placement that runs out of daemons, StopJob, and the blacklist
// pushes of SetBlacklist and of a reconnect that clears an entry.
var frameCases = []struct {
	name string
	run  func(t *testing.T, l *frameLog)
}{
	{"deploy with spares", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 8)
		l.watch(tb, -1, 0)
		l.submit(tb, JobSpec{App: "pingapp", Nodes: 5}, 2*time.Minute)
	}},
	{"straggler", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 8)
		ranked, _ := tb.ctl.reg.fastest(6, nil)
		slow, _ := simnet.HostID(ranked[0].name)
		l.watch(tb, slow, time.Second)
		job := l.submit(tb, JobSpec{App: "pingapp", Nodes: 5}, 2*time.Minute)
		for _, a := range job.Deployed {
			if a.Host == ranked[0].name {
				t.Errorf("the straggler %s was selected", a.Host)
			}
		}
		// The straggler's late ack reserved a port: FREE released it.
		if n := runningSum(tb); n != 5 {
			t.Errorf("%d instances reserved after the straggler's FREE, want 5", n)
		}
	}},
	{"start loss re-placed", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 10)
		l.watch(tb, -1, 0)
		tb.k.GoAfter(40*time.Millisecond, func() { tb.nw.Host(1).SetDown(true) })
		l.submit(tb, JobSpec{App: "pingapp", Nodes: 5, Superset: 1.001}, 5*time.Minute)
	}},
	{"exhausted", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 5)
		l.watch(tb, -1, 0)
		tb.k.GoAfter(40*time.Millisecond, func() {
			tb.nw.Host(1).SetDown(true)
			tb.nw.Host(2).SetDown(true)
		})
		l.submit(tb, JobSpec{App: "pingapp", Nodes: 4, Superset: 1.001}, 10*time.Minute)
	}},
	{"stop", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 8)
		l.watch(tb, -1, 0)
		job := l.submit(tb, JobSpec{App: "pingapp", Nodes: 5}, 2*time.Minute)
		var err error
		tb.k.Go(func() { err = tb.ctl.StopJob(job.ID) })
		tb.k.RunFor(time.Minute)
		l.job(job, err)
		l.printf("running %d", runningSum(tb))
	}},
	{"blacklist", func(t *testing.T, l *frameLog) {
		tb := newTestbed(t, 3)
		l.watch(tb, -1, 0)
		tb.k.Go(func() { tb.ctl.SetBlacklist([]string{"evil-host", simnet.HostName(2)}) })
		tb.k.RunFor(time.Minute)
		tb.ctl.DropDaemon(simnet.HostName(2))
		tb.daemons[1].Close() // revived below as a fresh process, not by its own redial
		tb.k.RunFor(time.Minute)
		d := daemon.New(tb.rt, tb.nw.Node(2), pingRegistry(), daemon.DefaultConfig(simnet.HostName(2)), nil)
		tb.k.Go(func() {
			if err := d.Connect(transport.Addr{Host: "n0", Port: DefaultConfig().Port}); err != nil {
				l.printf("revive error %q", err.Error())
			}
		})
		tb.k.RunFor(time.Minute)
		tb.ctl.mu.Lock()
		l.printf("blacklist %v daemons %d", tb.ctl.blacklist, tb.ctl.Daemons())
		tb.ctl.mu.Unlock()
	}},
}

// TestControlFrameTrace pins the control plane's traffic: the virtual
// instant, receiver and size of every delivered message, and what each
// case reports, across every way the controller waits on the fleet. A
// refactor of the controller must reproduce every line. Regenerate only
// for an intended change to the control plane's traffic:
//
//	go test ./internal/controller -run TestControlFrameTrace -update
func TestControlFrameTrace(t *testing.T) {
	var l frameLog
	for _, c := range frameCases {
		l.printf("== %s", c.name)
		c.run(t, &l)
	}
	got := l.b.String()
	if *updateFrames {
		if err := os.WriteFile(framesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(framesGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace line %d differs\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace has %d lines, golden %d", len(gl), len(wl))
}
