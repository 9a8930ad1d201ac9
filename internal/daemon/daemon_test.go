package daemon

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestControllerScript drives one daemon from a scripted controller over
// simnet: the HELLO/WELCOME handshake, then one command at a time, each
// answer checked before the next frame goes out. The daemon handles
// every command on its own task, so a frame that panics its handler
// takes the whole run down — which is what the job-less frames did
// before handle checked m.Job.
func TestControllerScript(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)

	var got core.JobInfo // what the started instance was handed
	reg := core.NewRegistry()
	err := reg.Register("app", func(json.RawMessage) (core.App, error) {
		return core.AppFunc(func(ctx *core.AppContext) error {
			got = ctx.Job
			return nil
		}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(simnet.HostName(1))
	d := New(rt, nw.Node(1), reg, cfg, nil)

	job := func(id string) *ctlproto.Job { return &ctlproto.Job{ID: id, App: "app"} }
	peers := []transport.Addr{{Host: "n1", Port: 20000}, {Host: "n7", Port: 20003}}
	steps := []struct {
		send ctlproto.Msg
		want ctlproto.MsgType // answer type
		err  string           // substring of the answer's Err
		port int
		held int // Running() after the answer: reserved plus started jobs
	}{
		{send: ctlproto.Msg{Type: ctlproto.TPing}, want: ctlproto.TAck},
		{send: ctlproto.Msg{Type: ctlproto.TBlacklist, Hosts: []string{"n0", "n9"}}, want: ctlproto.TAck},
		{send: ctlproto.Msg{Type: ctlproto.TRegister, Job: job("job-1")}, want: ctlproto.TAck, port: cfg.PortLow, held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TRegister, Job: job("job-1")}, want: ctlproto.TErr, err: "already registered", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TRegister, Job: &ctlproto.Job{ID: "job-x", App: "nope"}}, want: ctlproto.TErr, err: "unknown application", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TList, Job: &ctlproto.Job{ID: "job-1", App: "app", Position: 2, Nodes: peers}}, want: ctlproto.TAck, held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TList, Job: job("job-2")}, want: ctlproto.TErr, err: "not registered", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStart, Job: job("job-2")}, want: ctlproto.TErr, err: "not registered", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStart, Job: job("job-1")}, want: ctlproto.TAck, held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStart, Job: job("job-1")}, want: ctlproto.TErr, err: "already running", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TRegister, Job: job("job-2")}, want: ctlproto.TAck, port: cfg.PortLow + 1, held: 2},
		{send: ctlproto.Msg{Type: ctlproto.TFree, Job: job("job-2")}, want: ctlproto.TAck, held: 1},
		{send: ctlproto.Msg{Type: "bogus"}, want: ctlproto.TErr, err: "unknown command bogus", held: 1},
		// Frames without their job member, as a peer that is not our
		// controller could send them.
		{send: ctlproto.Msg{Type: ctlproto.TRegister}, want: ctlproto.TErr, err: "no job", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TList}, want: ctlproto.TErr, err: "no job", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStart}, want: ctlproto.TErr, err: "no job", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStop}, want: ctlproto.TErr, err: "no job", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TFree}, want: ctlproto.TErr, err: "no job", held: 1},
		{send: ctlproto.Msg{Type: ctlproto.TStop, Job: job("job-1")}, want: ctlproto.TAck},
		{send: ctlproto.Msg{Type: ctlproto.TStop, Job: job("job-1")}, want: ctlproto.TAck}, // idempotent
	}

	ctlAddr := transport.Addr{Host: simnet.HostName(0), Port: 5000}
	scripted := false
	k.Go(func() {
		ln, err := nw.Node(0).Listen(ctlAddr.Port)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		r, w := llenc.NewReader(conn), llenc.NewWriter(conn)
		var hello ctlproto.Msg
		if err := r.Decode(&hello); err != nil {
			t.Error(err)
			return
		}
		want := ctlproto.Msg{Type: ctlproto.THello, Name: cfg.Name, Key: "k-" + cfg.Name, PortLow: cfg.PortLow, PortHigh: cfg.PortHigh}
		if hello.Type != want.Type || hello.Name != want.Name || hello.Key != want.Key ||
			hello.PortLow != want.PortLow || hello.PortHigh != want.PortHigh {
			t.Errorf("hello = %+v, want %+v", hello, want)
		}
		if d.Connected() {
			t.Error("daemon reports connected before WELCOME")
		}
		if err := w.Encode(&ctlproto.Msg{Type: ctlproto.TWelcome, Hosts: []string{"n0"}}); err != nil {
			t.Error(err)
			return
		}
		for i, st := range steps {
			st.send.Seq = uint64(100 + i)
			if err := w.Encode(&st.send); err != nil {
				t.Errorf("step %d: %v", i, err)
				return
			}
			var ans ctlproto.Msg
			if err := r.Decode(&ans); err != nil {
				t.Errorf("step %d (%s): no answer: %v", i, st.send.Type, err)
				return
			}
			if ans.Seq != st.send.Seq || ans.Type != st.want || ans.Port != st.port ||
				!strings.Contains(ans.Err, st.err) || (st.err == "") != (ans.Err == "") {
				t.Errorf("step %d (%s): answer %+v, want seq %d type %s port %d err %q",
					i, st.send.Type, ans, st.send.Seq, st.want, st.port, st.err)
			}
			if n := d.Running(); n != st.held {
				t.Errorf("step %d (%s): %d jobs held, want %d", i, st.send.Type, n, st.held)
			}
		}
		// Maps never shrink: the daemon the last STOP left idle drops its
		// jobs table rather than keep its busiest moment.
		if d.jobs != nil {
			t.Errorf("the idle daemon keeps its jobs table (%d entries)", len(d.jobs))
		}
		scripted = true
	})
	k.Go(func() {
		if err := d.Connect(ctlAddr); err != nil {
			t.Error(err)
		}
	})
	k.RunFor(time.Minute) // the daemon redials the hung-up session until Close
	if !scripted {
		t.Fatal("script did not run to its end")
	}
	if d.Connected() {
		t.Error("daemon still reports connected after the controller hung up")
	}
	// START instantiates from the LIST frame's bootstrap information.
	wantJob := core.JobInfo{
		JobID: "job-1", Me: transport.Addr{Host: cfg.Name, Port: cfg.PortLow},
		Nodes: peers, Position: 2,
	}
	if got.JobID != wantJob.JobID || got.Me != wantJob.Me || got.Position != wantJob.Position ||
		len(got.Nodes) != 2 || got.Nodes[1] != peers[1] {
		t.Errorf("instance ran with %+v, want %+v", got, wantJob)
	}
	d.Close()
	k.Run() // the redial ends at its next wake
}

// TestGrantSkipsBusyPorts: every daemon grants only ports it can bind —
// by a lookup where the simulated network answers it, by a bind and a
// close through a node that hides the lookup (a sandbox) — and grants
// none when the whole range is taken.
func TestGrantSkipsBusyPorts(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 1, 1)
	host := nw.Node(0)
	for name, node := range map[string]transport.Node{"lookup": host, "bind": sandbox.Wrap(host, sandbox.NetLimits{})} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(simnet.HostName(0))
			cfg.PortHigh = cfg.PortLow + 1
			d := New(core.NewSimRuntime(k, 1), node, core.NewRegistry(), cfg, nil)
			grant := func() (int, bool) {
				d.mu.Lock()
				defer d.mu.Unlock()
				return d.grantPort()
			}
			take := func(port int) {
				ln, err := host.Listen(port)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ln.Close() })
			}
			take(cfg.PortLow)
			if port, ok := grant(); !ok || port != cfg.PortLow+1 {
				t.Fatalf("granted %d (%v) with %d taken, want %d", port, ok, cfg.PortLow, cfg.PortLow+1)
			}
			take(cfg.PortLow + 1)
			if port, ok := grant(); ok {
				t.Fatalf("granted %d with the whole range taken", port)
			}
		})
	}
}
