package daemon

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestConnectClosesARefusedSession: a Connect the controller does not
// welcome returns its error with the socket it dialed closed. Every
// failed redial used to leave one open — and one session task parked at
// the controller. The daemon's node is a sandbox with no
// limits, used as a spy on what is open.
func TestConnectClosesARefusedSession(t *testing.T) {
	for name, answer := range map[string]func(transport.Conn){
		"hangs up": func(c transport.Conn) { c.Close() },
		"not a welcome": func(c transport.Conn) {
			var hello ctlproto.Msg
			if err := llenc.NewReader(c).Decode(&hello); err != nil {
				t.Error(err)
			}
			llenc.NewWriter(c).Encode(&ctlproto.Msg{Type: ctlproto.TAck}) //nolint:errcheck
		},
	} {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel()
			nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
			spy := sandbox.Wrap(nw.Node(1), sandbox.NetLimits{})
			d := New(core.NewSimRuntime(k, 1), spy, core.NewRegistry(), DefaultConfig(simnet.HostName(1)), nil)
			ctlAddr := transport.Addr{Host: simnet.HostName(0), Port: 5000}
			k.Go(func() {
				ln, err := nw.Node(0).Listen(ctlAddr.Port)
				if err != nil {
					t.Error(err)
					return
				}
				c, err := ln.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				answer(c) // the stub keeps its end of a refused session open
			})
			var err error
			connected := false
			k.Go(func() {
				err = d.Connect(ctlAddr)
				connected = true
			})
			k.Run()
			if !connected || err == nil {
				t.Fatalf("Connect returned %v (returned: %v), want an error", err, connected)
			}
			if d.Connected() {
				t.Error("daemon reports connected")
			}
			if n := spy.OpenSockets(); n != 0 {
				t.Errorf("%d sockets open on the daemon's node after the failed Connect, want 0", n)
			}
			d.Close() // must not trip over the cleared connection
		})
	}
}

// TestHandshakeWaitsAtMostDialTimeout: a controller that accepts and reads
// the hello but never answers fails Connect after dialTimeout, with the
// dialed socket closed, instead of parking it — and the redial loop it
// runs in — forever.
func TestHandshakeWaitsAtMostDialTimeout(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	spy := sandbox.Wrap(nw.Node(1), sandbox.NetLimits{})
	d := New(core.NewSimRuntime(k, 1), spy, core.NewRegistry(), DefaultConfig(simnet.HostName(1)), nil)
	ctlAddr := transport.Addr{Host: simnet.HostName(0), Port: 5000}
	k.Go(func() {
		ln, err := nw.Node(0).Listen(ctlAddr.Port)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		r := llenc.NewReader(c)
		var m ctlproto.Msg
		for r.Decode(&m) == nil { // the hello, then silence until the daemon hangs up
		}
	})
	var err error
	var took time.Duration
	returned := false
	k.Go(func() {
		start := k.Now()
		err = d.Connect(ctlAddr)
		took, returned = k.Now().Sub(start), true
	})
	k.RunFor(3 * dialTimeout)
	if !returned {
		t.Fatalf("Connect still waits for the welcome after %s", 3*dialTimeout)
	}
	if err == nil || took < dialTimeout || took > dialTimeout+time.Second {
		t.Errorf("Connect returned %v after %s, want an error after %s", err, took, dialTimeout)
	}
	if n := spy.OpenSockets(); n != 0 {
		t.Errorf("%d sockets open on the daemon's node after the unanswered handshake, want 0", n)
	}
}

// TestLostSessionsCloseTheirSockets: every session the controller drops
// is closed on the daemon's side before the daemon redials, so after many
// drops the daemon's node holds one controller connection — the live one
// — not one per lost session.
func TestLostSessionsCloseTheirSockets(t *testing.T) {
	const drops = 5
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	ctl := controller.New(rt, nw.Node(0), controller.DefaultConfig())
	spy := sandbox.Wrap(nw.Node(1), sandbox.NetLimits{})
	name := simnet.HostName(1)
	d := New(rt, spy, core.NewRegistry(), DefaultConfig(name), nil)
	k.Go(func() {
		if err := ctl.Start(); err != nil {
			t.Error(err)
			return
		}
		if err := d.Connect(transport.Addr{Host: simnet.HostName(0), Port: controller.DefaultConfig().Port}); err != nil {
			t.Error(err)
		}
	})
	k.RunFor(time.Second)
	for i := 0; i < drops; i++ {
		if !ctl.DropDaemon(name) {
			t.Fatalf("drop %d: the controller has no session of %s", i, name)
		}
		k.RunFor(time.Minute) // the daemon redials within its backoff
		if !d.Connected() {
			t.Fatalf("drop %d: the daemon did not reconnect", i)
		}
	}
	if n := spy.OpenSockets(); n != 1 {
		t.Errorf("%d sockets open on the daemon's node after %d lost sessions, want 1", n, drops)
	}
	d.Close()
	ctl.Stop()
	k.Run()
}

// FuzzDaemonFrames: control frames are network input. Whatever payload
// sequence reaches the daemon's control sink, nothing panics, every frame
// that decodes is answered exactly once under its Seq — until the first
// one that does not, which drops the session — and after Close no
// instance runs and no port or socket stays held. The input is split into
// payloads at newlines (JSON needs none raw).
func FuzzDaemonFrames(f *testing.F) {
	for _, seed := range []string{
		`{"type":"ping","seq":1}`,
		`{"type":"register","seq":1,"job":{"id":"j","app":"app"}}
{"type":"list","seq":2,"job":{"id":"j","app":"app","position":1,"nodes":[{"host":"n1","port":20000}]}}
{"type":"start","seq":3,"job":{"id":"j","app":"app"}}
{"type":"start","seq":4,"job":{"id":"j","app":"app"}}
{"type":"stop","seq":5,"job":{"id":"j"}}`,
		`{"type":"register","seq":7,"job":{"id":"a","app":"app"}}
{"type":"register","seq":7,"job":{"id":"b","app":"app"}}
{"type":"register","seq":8,"job":{"id":"c","app":"app"}}
{"type":"start","seq":9,"job":{"id":"b","app":"app"}}
{"type":"free","seq":10,"job":{"id":"a"}}`,
		`{"type":"start","seq":1}
{"type":"blacklist","seq":2,"hosts":["n0"]}
{"type":"bogus","seq":3}
{not json
{"type":"ping","seq":4}`,
		`{"type":"register","seq":1,"job":{"id":"j","app":"nope"}}
[]
`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.NewKernel()
		nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
		rt := core.NewSimRuntime(k, 1)
		spy := sandbox.Wrap(nw.Node(1), sandbox.NetLimits{})
		reg := core.NewRegistry()
		running := 0
		err := reg.Register("app", func(json.RawMessage) (core.App, error) {
			return core.AppFunc(func(ctx *core.AppContext) error {
				running++
				ctx.OnKill(func() { running-- })
				ln, err := ctx.Node().Listen(ctx.Job.Me.Port)
				if err != nil {
					return err
				}
				ctx.Track(ln)
				return nil
			}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(simnet.HostName(1))
		cfg.PortHigh = cfg.PortLow + 1 // two ports: the allocator runs dry
		d := New(rt, spy, reg, cfg, nil)
		var wire bytes.Buffer
		s := &control{d: d, conn: stubConn{}, wlock: core.NewLock(rt)}
		s.enc.Reset(&wire)

		want := map[uint64]int{} // answers owed per Seq
		k.Go(func() {
			for _, payload := range bytes.Split(data, []byte("\n")) {
				var m ctlproto.Msg
				decodes := llenc.Unmarshal(payload, &m) == nil
				if kept := s.OnFrame(payload); kept != decodes {
					t.Errorf("OnFrame(%q) = %v, but the frame decodes: %v", payload, kept, decodes)
				}
				if !decodes {
					s.OnEnd(nil)
					return
				}
				want[m.Seq]++
			}
		})
		k.RunFor(time.Minute) // a dropped session redials until Close

		r := llenc.NewReader(&wire)
		for {
			var ans ctlproto.Msg
			if err := r.Decode(&ans); err != nil {
				break
			}
			if ans.Type != ctlproto.TAck && ans.Type != ctlproto.TErr {
				t.Errorf("answer %+v is neither an ack nor an error", ans)
			}
			want[ans.Seq]--
		}
		for seq, n := range want {
			if n != 0 {
				t.Errorf("seq %d: %d answers missing (negative: unasked for)", seq, n)
			}
		}

		d.Close()
		k.Run()
		if d.Running() != 0 || running != 0 || spy.OpenSockets() != 0 {
			t.Errorf("after Close: %d jobs held, %d instances running, %d sockets open; want none",
				d.Running(), running, spy.OpenSockets())
		}
		for port := cfg.PortLow; port <= cfg.PortHigh; port++ {
			ln, err := spy.Listen(port)
			if err != nil {
				t.Errorf("port %d still bound after Close: %v", port, err)
				continue
			}
			ln.Close()
		}
	})
}

// stubConn stands in for a session's socket that is only ever closed.
type stubConn struct{ transport.Conn }

func (stubConn) Close() error { return nil }
