package controller

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestSessionEndFailsPendingOnceInSeqOrder: a session keeps its commands
// in flight in seq order and delivers each one's verdict exactly once.
// Seven commands go out; the stub answers the third, then the first; the
// caller drops the fourth (it has its own answer); the monitor's sweep
// expires the second and fifth, whose deadlines are short, and keeps the
// rest in order, allocating nothing when nothing is due; and the session's
// end fails what is left in seq order and leaves the registry, however it
// ends: the daemon hangs up, the daemon sends a frame the decoder refuses,
// or the controller closes the connection itself as the monitor and
// DropDaemon do.
func TestSessionEndFailsPendingOnceInSeqOrder(t *testing.T) {
	const commands, short = 7, 10 * time.Second
	shortLived := map[uint64]bool{2: true, 5: true}
	answerOrder := []uint64{3, 1}
	const dropped = 4
	type delivery struct {
		seq uint64
		err error
	}
	want := []struct {
		seq uint64
		err string // "" for an answer
	}{{3, ""}, {1, ""}, {2, "timeout"}, {5, "timeout"}, {6, "disconnected"}, {7, "disconnected"}}

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
				}
				for _, seq := range answerOrder {
					w.Encode(&ctlproto.Msg{Type: ctlproto.TAck, Seq: seq}) //nolint:errcheck
				}
				// A monitor rotation after the short deadlines the sweep
				// has run, and the test has looked. Later frames (the
				// monitor's pings) stay unread and unanswered.
				ctl.rt.Sleep(short + pingEvery + 2*time.Second)
				end(ctl, stub)
			})
			var got []delivery
			k.GoAfter(time.Second, func() {
				d, ok := ctl.reg.get("n1")
				if !ok {
					t.Error("stub daemon never registered")
					return
				}
				for i := uint64(1); i <= commands; i++ {
					timeout := time.Hour
					if shortLived[i] {
						timeout = short
					}
					m := &ctlproto.Msg{Type: ctlproto.TPing}
					err := ctl.enqueue(d, m, timeout, func(_ ctlproto.Msg, err error) {
						got = append(got, delivery{m.Seq, err})
					})
					if err != nil {
						t.Errorf("enqueue %d: %v", i, err)
					}
				}
				ctl.rt.Sleep(time.Second) // the answers have arrived
				d.drop(dropped)
				ctl.rt.Sleep(short + pingEvery) // the sweep has run; the session still lives

				d.mu.Lock()
				defer d.mu.Unlock()
				for i, p := range d.pending {
					if i > 0 && p.seq <= d.pending[i-1].seq {
						t.Errorf("pending out of seq order after the sweep: %+v", d.pending)
					}
				}
				if len(d.pending) < 2 || d.pending[0].seq != 6 || d.pending[1].seq != 7 {
					t.Errorf("pending after the sweep starts %+v, want commands 6 and 7 first", d.pending)
					return
				}
				due := d.pending[0].deadline
				for _, p := range d.pending {
					if p.deadline.Before(due) {
						due = p.deadline
					}
				}
				if n := testing.AllocsPerRun(100, func() { d.expire(due) }); n != 0 {
					t.Errorf("a sweep that expires nothing allocates %.0f times", n)
				}
			})
			k.RunFor(2 * time.Minute)

			if len(got) != len(want) {
				t.Fatalf("deliveries %+v, want %+v", got, want)
			}
			for i, w := range want {
				g := got[i]
				if g.seq != w.seq || (g.err == nil) != (w.err == "") || g.err != nil && !strings.Contains(g.err.Error(), w.err) {
					t.Errorf("delivery %d: %+v, want seq %d with %q", i, g, w.seq, w.err)
				}
			}
			if ctl.Daemons() != 0 {
				t.Errorf("%d daemons registered after the session ended", ctl.Daemons())
			}
			ctl.Stop()
		})
	}
}

// TestRemovedSessionIsCollectable: a session the registry has dropped is
// garbage once nothing else holds it. A stub daemon registers, hangs up,
// and its session — the shard's last entry, conn and reader state with it
// — must not survive in the spare capacity of the shard's order slice
// until the shard's next put.
func TestRemovedSessionIsCollectable(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
	ctl := New(core.NewSimRuntime(k, 1), nw.Node(0), DefaultConfig())
	k.Go(func() {
		if err := ctl.Start(); err != nil {
			t.Error(err)
		}
	})
	var wp weak.Pointer[daemonSession]
	k.Go(func() {
		stub, err := nw.Node(1).Dial(ctl.Addr(), time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		llenc.NewWriter(stub).Encode(&ctlproto.Msg{Type: ctlproto.THello, Name: "n1"}) //nolint:errcheck
		var m ctlproto.Msg
		if err := llenc.NewReader(stub).Decode(&m); err != nil || m.Type != ctlproto.TWelcome {
			t.Errorf("welcome: %+v, %v", m, err)
		}
		d, ok := ctl.reg.get("n1")
		if !ok {
			t.Error("stub daemon never registered")
		}
		wp = weak.Make(d)
		stub.Close()
	})
	k.RunFor(time.Minute)
	if ctl.Daemons() != 0 {
		t.Fatalf("%d daemons registered after the stub hung up", ctl.Daemons())
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("the removed session is still reachable")
	}
	runtime.KeepAlive(ctl)
	runtime.KeepAlive(k)
}
