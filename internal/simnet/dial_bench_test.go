package simnet

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// BenchmarkDialAccept prices one connection's whole life on a two-host
// network: the dial (SYN and verdict), the accept through the event-driven
// listener, and both ends closed. Warm-up dials fill the kernel's and the
// network's pools first, so allocs/op is what every further connection
// costs; CI gates it.
func BenchmarkDialAccept(b *testing.B) {
	k := sim.NewKernel()
	nw := New(k, Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	to := transport.Addr{Host: "n1", Port: 80}
	dials := func(n int) {
		k.Go(func() {
			for i := 0; i < n; i++ {
				c, err := nw.Node(0).Dial(to, 0)
				if err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				c.Close()
			}
		})
		k.Run()
	}
	k.Go(func() {
		ln, err := nw.Node(1).Listen(to.Port)
		if err != nil {
			b.Errorf("listen: %v", err)
			return
		}
		transport.Serve(ln, nil, func(c transport.Conn) { c.Close() })
	})
	dials(16)
	b.ReportAllocs()
	b.ResetTimer()
	dials(b.N)
}

// TestAcceptAfterDrainKeepsBacking: popping the backlog copies the queue
// down instead of slicing its front off, so a listener whose backlog has
// drained queues the next arrival in the array it already has.
func TestAcceptAfterDrainKeepsBacking(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, Symmetric{RTT: time.Millisecond}, 1, 1)
	l := &listener{host: nw.Host(0)}
	c1, c2 := &conn{}, &conn{}
	l.deliver(c1)
	l.deliver(c2)
	if got, _ := l.TryAccept(); got != c1 {
		t.Fatal("backlog is not first in, first out")
	}
	if s := l.backlog[:cap(l.backlog)]; len(s) > 1 && s[1] != nil {
		t.Error("popped slot still points at a connection")
	}
	if got, _ := l.TryAccept(); got != c2 {
		t.Fatal("backlog is not first in, first out")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		l.deliver(c1)
		l.deliver(c2)
		l.TryAccept()
		l.TryAccept()
	}); allocs != 0 {
		t.Errorf("queueing after the backlog drained allocated %.1f times per round, want 0", allocs)
	}
}
