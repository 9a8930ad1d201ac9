package controller

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// stubAnswer scripts one stub daemon: it answers its first command with
// reply (TAck or TErr) after `after` units of time, or never when reply
// is empty.
type stubAnswer struct {
	reply ctlproto.MsgType
	after int
}

var (
	ackAt   = func(u int) stubAnswer { return stubAnswer{ctlproto.TAck, u} }
	errAt   = func(u int) stubAnswer { return stubAnswer{ctlproto.TErr, u} }
	silence = stubAnswer{}
)

// gatherCase is one collector round against scripted stubs: want, the
// verdict each session must report ("ack", "err" or "timeout"), the ack
// order as session indexes, whether the round must outlast the timeout,
// and which sessions' successes must reach late (nil late when lateWant
// is nil).
type gatherCase struct {
	name     string
	stubs    []stubAnswer
	want     int
	verdicts []string
	acks     []int
	timedOut bool
	lateWant []int
}

var gatherCases = []gatherCase{
	{
		name:     "want reached with acks and errors mixed",
		stubs:    []stubAnswer{errAt(1), ackAt(2), errAt(3), ackAt(4), silence},
		want:     2,
		verdicts: []string{"err", "ack", "err", "ack", "timeout"},
		acks:     []int{1, 3},
		lateWant: []int{},
	},
	{
		name:     "timeout with partial answers",
		stubs:    []stubAnswer{ackAt(1), errAt(2), silence, silence},
		want:     3,
		verdicts: []string{"ack", "err", "timeout", "timeout"},
		acks:     []int{0},
		timedOut: true,
		lateWant: []int{},
	},
	{
		name:     "success after close reaches late once",
		stubs:    []stubAnswer{ackAt(1), ackAt(5), errAt(6)},
		want:     1,
		verdicts: []string{"ack", "timeout", "timeout"},
		acks:     []int{0},
		lateWant: []int{1},
	},
	{
		name:     "nil late drops a success after close",
		stubs:    []stubAnswer{ackAt(1), ackAt(5), errAt(6)},
		want:     1,
		verdicts: []string{"ack", "timeout", "timeout"},
		acks:     []int{0},
	},
}

// gatherTimeout is the collector's RegisterTimeout in units; every
// scripted answer comes well before it or never.
const gatherTimeout = 15

// runGather drives one case on rt: stubs dial the controller from node(i)
// and answer the round's command as scripted, gather collects, and a
// fresh waiter then sits out the rest of the scripts — in simulation it
// reuses the round's pooled waiter, so a wake after Wait returned would
// end it early.
func runGather(t *testing.T, rt core.Runtime, node func(i int) transport.Node, unit time.Duration, c gatherCase) {
	cfg := DefaultConfig()
	cfg.Port = PortEphemeral
	cfg.RegisterTimeout = gatherTimeout * unit
	ctl := New(rt, node(0), cfg)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	ctl.mon.Stop() // no monitor ping reaches a stub
	defer ctl.Stop()
	for i, s := range c.stubs {
		rt.Go(func() { stub(t, rt, node(i+1), ctl.Addr(), fmt.Sprint("s", i), s, unit) })
	}
	for ctl.Daemons() < len(c.stubs) {
		rt.Sleep(unit / 10)
	}
	ds := make([]*daemonSession, len(c.stubs))
	for i := range ds {
		ds[i], _ = ctl.reg.get(fmt.Sprint("s", i))
	}

	var mu sync.Mutex // late runs on the answering session's reader
	var late []*daemonSession
	var lateFn func(*daemonSession)
	if c.lateWant != nil {
		lateFn = func(d *daemonSession) {
			mu.Lock()
			late = append(late, d)
			mu.Unlock()
		}
	}
	start := rt.Now()
	errs, acks := ctl.gather(ds, func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TPing} }, c.want, lateFn)
	took := rt.Now().Sub(start)
	w := rt.NewWaiter()
	w.WakeAfter(10*unit, "quiet")
	if v := w.Wait(); v != "quiet" {
		t.Errorf("a fresh waiter woke with %v: the round woke its recycled waiter", v)
	}

	if timedOut := took >= cfg.RegisterTimeout; timedOut != c.timedOut {
		t.Errorf("gather returned after %v, timed out %v, want %v", took, timedOut, c.timedOut)
	}
	for i, err := range errs {
		got := "err"
		switch {
		case err == nil:
			got = "ack"
		case errors.Is(err, transport.ErrTimeout):
			got = "timeout"
		case !strings.Contains(err.Error(), "scripted"):
			t.Errorf("session %d: %v, want the daemon's error", i, err)
		}
		if got != c.verdicts[i] {
			t.Errorf("session %d verdict %s (%v), want %s", i, got, err, c.verdicts[i])
		}
	}
	var order []int
	for _, a := range acks {
		order = append(order, indexOf(ds, a.d))
	}
	if fmt.Sprint(order) != fmt.Sprint(c.acks) {
		t.Errorf("acks in order %v, want %v", order, c.acks)
	}
	var lateIdx []int
	mu.Lock()
	defer mu.Unlock()
	for _, d := range late {
		lateIdx = append(lateIdx, indexOf(ds, d))
	}
	if c.lateWant != nil && fmt.Sprint(lateIdx) != fmt.Sprint(c.lateWant) {
		t.Errorf("late saw sessions %v, want %v", lateIdx, c.lateWant)
	}
}

func indexOf(ds []*daemonSession, d *daemonSession) int {
	for i, x := range ds {
		if x == d {
			return i
		}
	}
	return -1
}

// stub is a scripted daemon: hello, then one answer to its first command.
func stub(t *testing.T, rt core.Runtime, node transport.Node, ctl transport.Addr, name string, s stubAnswer, unit time.Duration) {
	conn, err := node.Dial(ctl, time.Second)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	r, w := llenc.NewReader(conn), llenc.NewWriter(conn)
	w.Encode(&ctlproto.Msg{Type: ctlproto.THello, Name: name}) //nolint:errcheck
	var m ctlproto.Msg
	if r.Decode(&m) != nil || m.Type != ctlproto.TWelcome {
		t.Errorf("%s: no welcome", name)
		return
	}
	if r.Decode(&m) != nil {
		return
	}
	if s.reply != "" {
		rt.Sleep(time.Duration(s.after) * unit)
		w.Encode(&ctlproto.Msg{Type: s.reply, Seq: m.Seq, Err: "scripted"}) //nolint:errcheck
	}
	for r.Decode(&m) == nil {
	}
}

// TestGather checks the collector on the simulation kernel: verdicts,
// ack order, the wake rule, the close, and that a success after the
// close reaches late exactly once while the round's pooled waiter stays
// untouched.
func TestGather(t *testing.T) {
	for _, c := range gatherCases {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel()
			nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, len(c.stubs)+1, 1)
			rt := core.NewSimRuntime(k, 1)
			done := false
			k.Go(func() {
				runGather(t, rt, func(i int) transport.Node { return nw.Node(i) }, 10*time.Millisecond, c)
				done = true
			})
			k.RunFor(time.Minute)
			if !done {
				t.Fatal("the round never finished")
			}
		})
	}
}

// TestGatherLive runs the same rounds on LiveRuntime over loopback
// sockets, where answers land on reader goroutines: under -race this
// covers the collector's mutex, the close, and late.
func TestGatherLive(t *testing.T) {
	for _, c := range gatherCases {
		t.Run(c.name, func(t *testing.T) {
			runGather(t, core.NewLiveRuntime(1), func(int) transport.Node { return livenet.NewNode("127.0.0.1") },
				40*time.Millisecond, c)
		})
	}
}
