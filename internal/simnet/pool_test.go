package simnet

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// poolSizes counts every partition's delivery and payload-buffer free
// lists.
func poolSizes(nw *Network) (dlv, buf []int) {
	for i := range nw.parts {
		dlv = append(dlv, len(nw.parts[i].freeDlv))
		buf = append(buf, len(nw.parts[i].freeBuf))
	}
	return dlv, buf
}

// TestOneWayStreamKeepsPoolsBounded: deliveries and payload buffers recycle
// into the receiving partition's pools, so a one-way cross-partition stream
// — metric reports flowing to the monitoring host — drains the sender's
// pools into the receiver's. Levelled at the barriers, every partition's
// pools stay bounded by what is in flight, not by how many messages went
// through.
func TestOneWayStreamKeepsPoolsBounded(t *testing.T) {
	const (
		msgs  = 20000
		every = 100 * time.Microsecond // 50 messages per 5 ms one-way trip
	)
	pk := sim.NewParKernel(2, 1, 5*time.Millisecond)
	nw, err := NewPartitioned(pk, Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv, peak int
	pk.Go(1, func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		for recv < msgs {
			if _, err := c.Read(buf); err != nil {
				t.Error(err)
				return
			}
			recv++
		}
	})
	pk.Go(0, func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Error(err)
			return
		}
		msg := make([]byte, 64)
		for ; sent < msgs; sent++ {
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
				return
			}
			pk.Sub(0).Sleep(every)
		}
	})
	// Sample the messages in flight at every barrier (the counters are
	// written by the two partitions, read here while neither runs).
	pk.AddBarrierHook(func() { peak = max(peak, sent-recv) })
	dlv0, buf0 := poolSizes(nw)
	pk.Run()
	dlv, buf := poolSizes(nw)
	t.Logf("%d messages, in-flight peak %d: delivery pools %v → %v, buffer pools %v → %v",
		msgs, peak, dlv0, dlv, buf0, buf)
	if recv != msgs {
		t.Fatalf("received %d of %d messages", recv, msgs)
	}
	for p := range dlv {
		if bound := 3*peak + poolSlack; dlv[p] > bound || buf[p] > bound {
			t.Errorf("partition %d pools hold %d deliveries and %d buffers after %d messages; in-flight peak %d bounds them at %d",
				p, dlv[p], buf[p], msgs, peak, bound)
		}
	}
}
