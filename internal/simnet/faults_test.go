package simnet

import (
	"errors"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/transport"
)

// TestPartitionResetsAndBlackholes checks the three partition effects:
// crossing connections reset, crossing dials time out, crossing
// datagrams vanish — and that HealPartition undoes all three.
func TestPartitionResetsAndBlackholes(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Millisecond})
	var (
		acceptErr error
		dialErr   error
		redialErr error
		dgramOK   bool
	)
	k.Go(func() {
		l, err := nw.Node(1).Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		_, acceptErr = c.Read(make([]byte, 8))

		p, err := nw.Node(1).ListenPacket(90)
		if err != nil {
			t.Errorf("listen packet: %v", err)
			return
		}
		p.SetReadDeadline(k.Now().Add(5 * time.Second))
		if _, _, err := p.ReadFrom(make([]byte, 64)); err == nil {
			dgramOK = true
		}
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		k.Sleep(100 * time.Millisecond)

		nw.Partition(0, []bool{false, true})
		if _, err := c.Read(make([]byte, 8)); err == nil {
			t.Error("read on a crossing conn survived the partition")
		}
		_, dialErr = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 2*time.Second)

		pc, err := nw.Node(0).ListenPacket(0)
		if err != nil {
			t.Errorf("listen packet: %v", err)
			return
		}
		if _, err := pc.WriteTo([]byte("lost"), transport.Addr{Host: "n1", Port: 90}); err != nil {
			t.Errorf("partitioned WriteTo errored: %v", err)
		}

		nw.HealPartition(0)
		c2, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 2*time.Second)
		redialErr = err
		if err == nil {
			c2.Close()
		}
	})
	k.Run()
	if acceptErr == nil {
		t.Error("server side of the crossing conn observed no error")
	}
	if !errors.Is(dialErr, transport.ErrTimeout) {
		t.Errorf("crossing dial returned %v, want timeout", dialErr)
	}
	if dgramOK {
		t.Error("crossing datagram was delivered")
	}
	if redialErr != nil {
		t.Errorf("dial after heal failed: %v", redialErr)
	}
	if nw.Stats().DroppedDgrams != 1 {
		t.Errorf("DroppedDgrams = %d, want 1", nw.Stats().DroppedDgrams)
	}
}

// TestDegradeAddsLatency checks Degrade slows delivery by exactly the
// configured extra one-way delay.
func TestDegradeAddsLatency(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Millisecond})
	var at time.Duration
	k.Go(func() {
		p, _ := nw.Node(1).ListenPacket(90)
		start := k.Now()
		if _, _, err := p.ReadFrom(make([]byte, 64)); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		at = k.Now().Sub(start)
	})
	k.Go(func() {
		nw.Degrade(0, nil, 100*time.Millisecond, 0)
		p, _ := nw.Node(0).ListenPacket(0)
		p.WriteTo([]byte("slow"), transport.Addr{Host: "n1", Port: 90})
	})
	k.Run()
	if at != 105*time.Millisecond {
		t.Errorf("degraded datagram arrived after %s, want 105ms (RTT/2 + 100ms)", at)
	}
}

// TestDegradeLossDropsDatagrams checks full degradation loss blackholes
// datagrams without touching streams.
func TestDegradeLossDropsDatagrams(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Millisecond})
	k.Go(func() {
		nw.Degrade(0, nil, 0, 1.0)
		p, _ := nw.Node(0).ListenPacket(0)
		p.WriteTo([]byte("gone"), transport.Addr{Host: "n1", Port: 90})
		nw.Restore(0)
		p.WriteTo([]byte("kept"), transport.Addr{Host: "n1", Port: 90})
	})
	var got string
	k.Go(func() {
		p, _ := nw.Node(1).ListenPacket(90)
		buf := make([]byte, 64)
		n, _, err := p.ReadFrom(buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		got = string(buf[:n])
	})
	k.Run()
	if got != "kept" {
		t.Errorf("received %q, want the post-Restore datagram", got)
	}
	if nw.Stats().DroppedDgrams != 1 {
		t.Errorf("DroppedDgrams = %d, want 1", nw.Stats().DroppedDgrams)
	}
}
