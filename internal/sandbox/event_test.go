package sandbox

import (
	"errors"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/transport"
)

func isEventConn(c transport.Conn) bool         { _, ok := c.(transport.EventConn); return ok }
func isEventListener(l transport.Listener) bool { _, ok := l.(transport.EventListener); return ok }

// TestEventCapabilityFollowsTransport: the sandbox neither hides nor
// invents the event interfaces. Over simnet every stream and listener it
// hands out reads event-driven; over livenet none claims to.
func TestEventCapabilityFollowsTransport(t *testing.T) {
	k, sb, peer := newSandboxNet(t, NetLimits{MaxSockets: 16})
	k.Go(func() {
		l, err := peer.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	})
	k.GoAfter(time.Second, func() {
		l, err := sb.Listen(90)
		if err != nil {
			t.Error(err)
			return
		}
		if !isEventListener(l) {
			t.Errorf("Listen over simnet returned %T: not a transport.EventListener", l)
		}
		c, err := sb.Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if !isEventConn(c) {
			t.Errorf("Dial over simnet returned %T: not a transport.EventConn", c)
		}
		// Two inbound streams: one taken by Accept, one by TryAccept.
		for i := 0; i < 2; i++ {
			if _, err := peer.Dial(transport.Addr{Host: "n0", Port: 90}, 0); err != nil {
				t.Error(err)
				return
			}
		}
		a, err := l.Accept()
		if err != nil || !isEventConn(a) {
			t.Errorf("Accept over simnet returned %T, %v: not a transport.EventConn", a, err)
		}
		b, err := l.(transport.EventListener).TryAccept()
		if err != nil || b == nil || !isEventConn(b) {
			t.Errorf("TryAccept over simnet returned %T, %v: not a transport.EventConn", b, err)
		}
		if none, err := l.(transport.EventListener).TryAccept(); none != nil || err != nil {
			t.Errorf("TryAccept on an empty backlog returned %v, %v; want nil, nil", none, err)
		}
		if got := sb.OpenSockets(); got != 4 {
			t.Errorf("open sockets = %d, want 4 (listener, dialed, two accepted)", got)
		}
	})
	k.RunFor(time.Minute)

	live := Wrap(livenet.NewNode("127.0.0.1"), NetLimits{MaxSockets: 16})
	l, err := live.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer live.CloseAll()
	if isEventListener(l) {
		t.Errorf("Listen over livenet returned %T, which claims transport.EventListener", l)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := live.Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a := <-accepted; a == nil || isEventConn(a) || isEventConn(c) {
		t.Errorf("livenet streams %T (accepted) and %T (dialed) must stay plain Conns", a, c)
	}
}

// TestRxQuotaTripsAtTheSameByte: the event read charges like the blocking
// one — the read that crosses MaxRxBytes returns its data beside ErrLimit
// and leaves the counter where it was.
func TestRxQuotaTripsAtTheSameByte(t *testing.T) {
	type verdict struct {
		n   []int
		err error
		rx  int64
	}
	run := func(event bool) verdict {
		k, sb, peer := newSandboxNet(t, NetLimits{MaxRxBytes: 1000})
		var v verdict
		k.Go(func() {
			l, _ := peer.Listen(80)
			c, err := l.Accept()
			if err != nil {
				return
			}
			for i := 0; i < 3; i++ { // 400 + 400 within quota, the third crosses it
				c.Write(make([]byte, 400)) //nolint:errcheck
				k.Sleep(time.Second)
			}
		})
		k.GoAfter(time.Second, func() {
			c, err := sb.Dial(transport.Addr{Host: "n1", Port: 80}, 0)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4096)
			for v.err == nil {
				var n int
				if event {
					k.Sleep(time.Second) // let the next write land, then poll
					n, v.err = c.(transport.EventConn).TryRead(buf)
				} else {
					n, v.err = c.Read(buf)
				}
				v.n = append(v.n, n)
			}
		})
		k.RunFor(time.Minute)
		_, v.rx = sb.Usage()
		return v
	}
	blocking, event := run(false), run(true)
	if !errors.Is(blocking.err, transport.ErrLimit) || blocking.rx != 800 || len(blocking.n) != 3 || blocking.n[2] != 400 {
		t.Fatalf("Read under MaxRxBytes 1000: reads %v, err %v, rx %d; want [400 400 400], ErrLimit, 800", blocking.n, blocking.err, blocking.rx)
	}
	if !errors.Is(event.err, transport.ErrLimit) || event.rx != blocking.rx || len(event.n) != 3 || event.n[2] != 400 {
		t.Fatalf("TryRead under MaxRxBytes 1000: reads %v, err %v, rx %d; Read gave %v, %v, %d", event.n, event.err, event.rx, blocking.n, blocking.err, blocking.rx)
	}
}

// TestSocketLimitRefusesTheSameAccept: the event accept admits, refuses
// and counts like the blocking one — the stream past MaxSockets comes back
// as ErrLimit, closed (its dialer reads EOF) and uncounted.
func TestSocketLimitRefusesTheSameAccept(t *testing.T) {
	for _, event := range []bool{false, true} {
		k, sb, peer := newSandboxNet(t, NetLimits{MaxSockets: 3}) // listener + two streams
		var errs []error
		refusedSawEOF := false
		k.Go(func() {
			l, err := sb.Listen(90)
			if err != nil {
				t.Error(err)
				return
			}
			k.Sleep(2 * time.Second) // three dials queue up meanwhile
			for i := 0; i < 3; i++ {
				var err error
				if event {
					_, err = l.(transport.EventListener).TryAccept()
				} else {
					_, err = l.Accept()
				}
				errs = append(errs, err)
			}
		})
		k.GoAfter(time.Second, func() {
			var last transport.Conn
			for i := 0; i < 3; i++ {
				c, err := peer.Dial(transport.Addr{Host: "n0", Port: 90}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				last = c
			}
			_, err := last.Read(make([]byte, 1))
			refusedSawEOF = err != nil
		})
		k.RunFor(time.Minute)
		if len(errs) != 3 || errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], transport.ErrLimit) {
			t.Errorf("event=%v: accept verdicts %v, want [nil nil ErrLimit]", event, errs)
		}
		if !refusedSawEOF {
			t.Errorf("event=%v: the refused stream was left open", event)
		}
		if got := sb.OpenSockets(); got != 3 {
			t.Errorf("event=%v: open sockets = %d, want 3 (the refused stream is not counted)", event, got)
		}
	}
}
