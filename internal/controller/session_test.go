package controller

import (
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestSessionEndFailsPendingOnceInSeqOrder: a session that ends with
// commands in flight — a deployment's frames the daemon never answered —
// fails each of them exactly once, in Seq order (popPending's contract),
// and leaves the registry, however it ends: the daemon hangs up, the
// daemon sends a frame the decoder refuses, or the controller closes the
// connection itself as the monitor and DropDaemon do. An answered command
// is not failed again.
func TestSessionEndFailsPendingOnceInSeqOrder(t *testing.T) {
	const commands, answered = 6, 3 // the stub answers only the third
	for name, end := range map[string]func(c *Controller, stub transport.Conn){
		"daemon hangs up":      func(_ *Controller, stub transport.Conn) { stub.Close() },
		"daemon sends garbage": func(_ *Controller, stub transport.Conn) { llenc.NewWriter(stub).WriteMessage([]byte("{not json")) }, //nolint:errcheck
		"controller closes":    func(c *Controller, _ transport.Conn) { c.DropDaemon("n1") },
	} {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel()
			nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
			ctl := New(core.NewSimRuntime(k, 1), nw.Node(0), DefaultConfig())
			k.Go(func() {
				if err := ctl.Start(); err != nil {
					t.Error(err)
				}
			})
			k.Go(func() {
				stub, err := nw.Node(1).Dial(ctl.Addr(), time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				r, w := llenc.NewReader(stub), llenc.NewWriter(stub)
				w.Encode(&ctlproto.Msg{Type: ctlproto.THello, Name: "n1"}) //nolint:errcheck
				var m ctlproto.Msg
				if err := r.Decode(&m); err != nil || m.Type != ctlproto.TWelcome {
					t.Errorf("welcome: %+v, %v", m, err)
					return
				}
				for i := 1; i <= commands; i++ {
					if err := r.Decode(&m); err != nil {
						t.Errorf("command %d: %v", i, err)
						return
					}
					if i == answered {
						w.Encode(&ctlproto.Msg{Type: ctlproto.TAck, Seq: m.Seq}) //nolint:errcheck
					}
				}
				ctl.rt.Sleep(time.Second) // the answer has arrived
				end(ctl, stub)
			})
			type delivery struct {
				seq uint64
				err error
			}
			var got []delivery
			k.GoAfter(time.Second, func() {
				d, ok := ctl.reg.get("n1")
				if !ok {
					t.Error("stub daemon never registered")
					return
				}
				for i := 1; i <= commands; i++ {
					m := &ctlproto.Msg{Type: ctlproto.TPing}
					err := ctl.enqueue(d, m, time.Hour, func(_ ctlproto.Msg, err error) {
						got = append(got, delivery{m.Seq, err})
					})
					if err != nil {
						t.Errorf("enqueue %d: %v", i, err)
					}
				}
			})
			k.RunFor(time.Minute)

			if len(got) != commands {
				t.Fatalf("%d deliveries for %d commands: %+v", len(got), commands, got)
			}
			if got[0].seq != answered || got[0].err != nil {
				t.Errorf("first delivery %+v, want the answer to command %d", got[0], answered)
			}
			for i, g := range got[1:] {
				if g.err == nil || !strings.Contains(g.err.Error(), "disconnected") {
					t.Errorf("delivery %d: %+v, want a disconnection error", i+1, g)
				}
				if i > 0 && g.seq <= got[i].seq {
					t.Errorf("orphans delivered out of Seq order: %+v", got[1:])
				}
			}
			if ctl.Daemons() != 0 {
				t.Errorf("%d daemons registered after the session ended", ctl.Daemons())
			}
			ctl.Stop()
		})
	}
}
