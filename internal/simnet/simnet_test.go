package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

func newTestNet(t *testing.T, n int, model LinkModel) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, model, n, 1)
}

func TestHostNames(t *testing.T) {
	if HostName(42) != "n42" {
		t.Fatalf("HostName(42) = %q", HostName(42))
	}
	id, err := HostID("n42")
	if err != nil || id != 42 {
		t.Fatalf("HostID(n42) = %d, %v", id, err)
	}
	for _, bad := range []string{"x42", "n-1", "n", "nxx"} {
		if _, err := HostID(bad); err == nil {
			t.Fatalf("HostID(%q) accepted", bad)
		}
	}
}

func TestDialAcceptRoundTrip(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 100 * time.Millisecond})
	var acceptedFrom transport.Addr
	var dialTime time.Duration
	var msg []byte

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
		acceptedFrom = c.RemoteAddr()
		at := k.Since()
		if n, err := c.Read(nil); n != 0 || err != nil || k.Since() != at {
			t.Errorf("zero-length read = %d, %v after %s, want 0, nil at once", n, err, k.Since()-at)
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		msg = buf[:n]
		c.Close()
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		dialTime = k.Since()
		if _, err := c.Write([]byte("hello")); err != nil {
			t.Errorf("write: %v", err)
		}
		c.Close()
	})
	k.Run()

	if dialTime != 100*time.Millisecond {
		t.Errorf("dial took %s, want 100ms (one RTT)", dialTime)
	}
	if acceptedFrom.Host != "n0" {
		t.Errorf("accepted from %v, want host n0", acceptedFrom)
	}
	if string(msg) != "hello" {
		t.Errorf("received %q, want hello", msg)
	}
}

func TestDialRefused(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 100 * time.Millisecond})
	var err error
	var at time.Duration
	k.Go(func() {
		_, err = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 9999}, 0)
		at = k.Since()
	})
	k.Run()
	if !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if at != 100*time.Millisecond {
		t.Fatalf("refusal after %s, want one RTT", at)
	}
	if nw.Stats().RefusedDials != 1 {
		t.Fatalf("refused dials = %d", nw.Stats().RefusedDials)
	}
}

func TestDialTimeout(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Second})
	var err error
	var at time.Duration
	k.Go(func() {
		_, err = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, time.Second)
		at = k.Since()
	})
	k.Run()
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if at != time.Second {
		t.Fatalf("timeout after %s, want 1s", at)
	}
}

func TestDialUnknownHost(t *testing.T) {
	k, nw := newTestNet(t, 1, Symmetric{})
	var err error
	k.Go(func() {
		_, err = nw.Node(0).Dial(transport.Addr{Host: "n7", Port: 80}, 0)
	})
	k.Run()
	if err == nil {
		t.Fatal("dial to out-of-range host succeeded")
	}
}

func TestBandwidthTransferTime(t *testing.T) {
	// 1 MB at 1 MB/s symmetric links: sender serialization ~1s, receiver
	// ~pipelined, one-way delay 50ms. Total ≈ 1s + 50ms + per-segment rx.
	const bps = 1 << 20
	k, nw := newTestNet(t, 2, Symmetric{RTT: 100 * time.Millisecond, Bps: bps})
	payload := make([]byte, 1<<20)
	var done time.Duration
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		n, err := io.Copy(io.Discard, c)
		if err != nil || n != int64(len(payload)) {
			t.Errorf("copy: n=%d err=%v", n, err)
		}
		done = k.Since()
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for off := 0; off < len(payload); off += 64 << 10 {
			if _, err := c.Write(payload[off : off+64<<10]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		c.Close()
	})
	k.Run()

	// Handshake 100ms + 1s serialization + 50ms delay + one 64KB segment rx
	// (~62.5ms). Accept generous bounds.
	if done < 1150*time.Millisecond || done > 1400*time.Millisecond {
		t.Fatalf("1MB at 1MB/s finished at %s, want ≈1.2s", done)
	}
}

func TestUplinkSharedBetweenFlows(t *testing.T) {
	// Two flows from n0 share its uplink: total time for 2×1MB at 1MB/s
	// should be ≈2s, not ≈1s.
	const bps = 1 << 20
	k, nw := newTestNet(t, 3, Symmetric{RTT: 0, Bps: bps})
	var last time.Duration
	recv := func(host, port int) {
		l, _ := nw.Node(host).Listen(port)
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		if k.Since() > last {
			last = k.Since()
		}
	}
	send := func(to string, port int) {
		c, err := nw.Node(0).Dial(transport.Addr{Host: to, Port: port}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 64<<10)
		for i := 0; i < 16; i++ {
			c.Write(buf)
		}
		c.Close()
	}
	k.Go(func() { recv(1, 80) })
	k.Go(func() { recv(2, 80) })
	k.Go(func() { send("n1", 80) })
	k.Go(func() { send("n2", 80) })
	k.Run()
	if last < 1900*time.Millisecond || last > 2300*time.Millisecond {
		t.Fatalf("2×1MB over shared 1MB/s uplink finished at %s, want ≈2s", last)
	}
}

func TestReadDeadline(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Millisecond})
	var err error
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		c, aerr := l.Accept()
		if aerr != nil {
			return
		}
		c.SetReadDeadline(k.Now().Add(time.Second))
		buf := make([]byte, 8)
		_, err = c.Read(buf)
	})
	k.Go(func() {
		// Dial but never write.
		nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		k.Sleep(5 * time.Second)
	})
	k.Run()
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("read err = %v, want ErrTimeout", err)
	}
}

func TestReadAfterDeadlinePasses(t *testing.T) {
	// Data arriving after a read timeout is still readable afterwards.
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Millisecond})
	var first error
	var second []byte
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.SetReadDeadline(k.Now().Add(100 * time.Millisecond))
		buf := make([]byte, 8)
		_, first = c.Read(buf)
		c.SetReadDeadline(time.Time{})
		n, err := c.Read(buf)
		if err == nil {
			second = append([]byte(nil), buf[:n]...)
		}
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			return
		}
		k.Sleep(500 * time.Millisecond)
		c.Write([]byte("late"))
	})
	k.Run()
	if !errors.Is(first, transport.ErrTimeout) {
		t.Fatalf("first read err = %v, want timeout", first)
	}
	if string(second) != "late" {
		t.Fatalf("second read = %q, want late", second)
	}
}

func TestCloseDeliversEOFAfterData(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 40 * time.Millisecond})
	var got []byte
	var readErr error
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			return
		}
		got, readErr = io.ReadAll(c)
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			return
		}
		c.Write([]byte("abc"))
		c.Write([]byte("def"))
		c.Close()
	})
	k.Run()
	if readErr != nil {
		t.Fatalf("ReadAll: %v", readErr)
	}
	if string(got) != "abcdef" {
		t.Fatalf("got %q, want abcdef", got)
	}
}

func TestHostDownResetsEverything(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 20 * time.Millisecond})
	var readErr, dialErr error
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _ = c }()
			_ = c
		}
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 8)
		_, readErr = c.Read(buf) // blocked when n1 dies
	})
	k.GoAfter(time.Second, func() {
		nw.Host(1).SetDown(true)
		_, dialErr = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
	})
	k.Run()
	if !errors.Is(readErr, transport.ErrClosed) {
		t.Fatalf("read err = %v, want ErrClosed", readErr)
	}
	if !errors.Is(dialErr, transport.ErrRefused) {
		t.Fatalf("dial err = %v, want ErrRefused", dialErr)
	}
	if !nw.Host(1).Down() {
		t.Fatal("host 1 should be down")
	}
}

func TestHostRevives(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 20 * time.Millisecond})
	nw.Host(1).SetDown(true)
	var err error
	k.Go(func() {
		k.Sleep(time.Second)
		nw.Host(1).SetDown(false)
		l, lerr := nw.Node(1).Listen(80)
		if lerr != nil {
			t.Errorf("listen after revive: %v", lerr)
			return
		}
		go func() { _ = l }()
		k.Go(func() { l.Accept() })
		k.Sleep(10 * time.Millisecond)
		_, err = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
	})
	k.Run()
	if err != nil {
		t.Fatalf("dial after revive: %v", err)
	}
}

func TestSilentFailureBlackholes(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 20 * time.Millisecond})
	nw.SetSilentFailures(true)
	var dialErr, readErr error
	var dialAt time.Duration
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		k.Go(func() { l.Accept() }) //nolint:errcheck
	})
	k.GoAfter(time.Second, func() {
		// Established connection first.
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		nw.Host(1).SetDown(true)
		// Writes to the dead host vanish without error.
		if _, err := c.Write([]byte("into the void")); err != nil {
			t.Errorf("write to blackhole errored: %v", err)
		}
		// Reads block until the deadline, not an immediate reset.
		c.SetReadDeadline(k.Now().Add(2 * time.Second))
		_, readErr = c.Read(make([]byte, 8))
		// New dials time out instead of being refused.
		start := k.Since()
		_, dialErr = nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 3*time.Second)
		dialAt = k.Since() - start
	})
	k.Run()
	if !errors.Is(readErr, transport.ErrTimeout) {
		t.Fatalf("read err = %v, want timeout", readErr)
	}
	if !errors.Is(dialErr, transport.ErrTimeout) {
		t.Fatalf("dial err = %v, want timeout", dialErr)
	}
	if dialAt != 3*time.Second {
		t.Fatalf("dial failed after %s, want full 3s timeout", dialAt)
	}
}

func TestDatagrams(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 30 * time.Millisecond})
	var got []byte
	var from transport.Addr
	var at time.Duration
	k.Go(func() {
		pc, err := nw.Node(1).ListenPacket(5000)
		if err != nil {
			t.Errorf("listenpacket: %v", err)
			return
		}
		buf := make([]byte, 128)
		n, f, err := pc.ReadFrom(buf)
		if err != nil {
			t.Errorf("readfrom: %v", err)
			return
		}
		got, from, at = buf[:n], f, k.Since()
	})
	k.Go(func() {
		pc, err := nw.Node(0).ListenPacket(6000)
		if err != nil {
			t.Errorf("listenpacket: %v", err)
			return
		}
		pc.WriteTo([]byte("ping"), transport.Addr{Host: "n1", Port: 5000})
	})
	k.Run()
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if from.Host != "n0" || from.Port != 6000 {
		t.Fatalf("from = %v", from)
	}
	if at != 15*time.Millisecond {
		t.Fatalf("delivered at %s, want one-way 15ms", at)
	}
}

type lossyModel struct {
	Symmetric
	loss float64
}

func (l lossyModel) Loss(a, b int) float64 { return l.loss }

func TestDatagramLoss(t *testing.T) {
	k, nw := newTestNet(t, 2, lossyModel{Symmetric{RTT: 10 * time.Millisecond}, 1.0})
	delivered := false
	k.Go(func() {
		pc, _ := nw.Node(1).ListenPacket(5000)
		buf := make([]byte, 16)
		pc.SetReadDeadline(k.Now().Add(time.Second))
		if _, _, err := pc.ReadFrom(buf); err == nil {
			delivered = true
		}
	})
	k.Go(func() {
		pc, _ := nw.Node(0).ListenPacket(0)
		for i := 0; i < 10; i++ {
			pc.WriteTo([]byte("x"), transport.Addr{Host: "n1", Port: 5000})
		}
	})
	k.Run()
	if delivered {
		t.Fatal("datagram delivered despite 100% loss")
	}
	if nw.Stats().DroppedDgrams != 10 {
		t.Fatalf("dropped = %d, want 10", nw.Stats().DroppedDgrams)
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{})
	var err error
	k.Go(func() {
		pc, _ := nw.Node(0).ListenPacket(0)
		_, err = pc.WriteTo(make([]byte, MaxDatagram+1), transport.Addr{Host: "n1", Port: 5000})
	})
	k.Run()
	if err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestPortsInUse(t *testing.T) {
	k, nw := newTestNet(t, 1, Symmetric{})
	k.Go(func() {
		if _, err := nw.Node(0).Listen(80); err != nil {
			t.Errorf("first listen: %v", err)
		}
		if _, err := nw.Node(0).Listen(80); err == nil {
			t.Error("second listen on same port succeeded")
		}
		if _, err := nw.Node(0).ListenPacket(5000); err != nil {
			t.Errorf("first packet listen: %v", err)
		}
		if _, err := nw.Node(0).ListenPacket(5000); err == nil {
			t.Error("second packet listen on same port succeeded")
		}
	})
	k.Run()
}

func TestListenerCloseWakesAcceptor(t *testing.T) {
	k, nw := newTestNet(t, 1, Symmetric{})
	var err error
	k.Go(func() {
		l, _ := nw.Node(0).Listen(80)
		k.Go(func() {
			k.Sleep(time.Second)
			l.Close()
		})
		_, err = l.Accept()
	})
	k.Run()
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("accept err = %v, want ErrClosed", err)
	}
}

// Property: any sequence of writes is received intact and in order.
func TestQuickStreamIntegrity(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		nw := New(k, Symmetric{RTT: time.Duration(rng.Intn(200)) * time.Millisecond, Bps: 1 << 20}, 2, seed)
		var sent, recv bytes.Buffer
		ok := true
		k.Go(func() {
			l, _ := nw.Node(1).Listen(80)
			c, err := l.Accept()
			if err != nil {
				ok = false
				return
			}
			if _, err := io.Copy(&recv, c); err != nil {
				ok = false
			}
		})
		k.Go(func() {
			c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
			if err != nil {
				ok = false
				return
			}
			for _, s := range sizes {
				chunk := make([]byte, int(s)%4096+1)
				rng.Read(chunk)
				sent.Write(chunk)
				if _, err := c.Write(chunk); err != nil {
					ok = false
					return
				}
			}
			c.Close()
		})
		k.Run()
		return ok && bytes.Equal(sent.Bytes(), recv.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProcDelayHook(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 0})
	nw.SetProcDelay(func(host, size int) time.Duration {
		return 250 * time.Millisecond
	})
	var at time.Duration
	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		c.Read(buf)
		at = k.Since()
	})
	k.Go(func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			return
		}
		c.Write([]byte("x"))
	})
	k.Run()
	if at != 250*time.Millisecond {
		t.Fatalf("delivery at %s, want 250ms proc delay", at)
	}
}

// TestEphemeralPortExhaustion occupies every ephemeral port and checks that
// Listen, ListenPacket and Dial report an error instead of spinning forever.
func TestEphemeralPortExhaustion(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: time.Millisecond})
	h := nw.Host(0)
	k.Go(func() {
		for p := 40000; p <= 65000; p++ {
			if _, err := h.Listen(p); err != nil {
				t.Errorf("listen %d: %v", p, err)
				return
			}
		}
		if _, err := h.Listen(0); err == nil {
			t.Error("Listen(0) succeeded with all ephemeral ports occupied")
		}
		if _, err := h.ListenPacket(0); err == nil {
			t.Error("ListenPacket(0) succeeded with all ephemeral ports occupied")
		}
		if _, err := h.Dial(transport.Addr{Host: "n1", Port: 80}, time.Second); err == nil {
			t.Error("Dial succeeded with no free local port")
		}
	})
	k.Run()
}

// TestDialVerdictAfterTimeout reproduces the pooled-waiter race: the dialer
// times out (slow verdict), its waiter is recycled, and the late verdict
// must tear the orphan connection down rather than wake anything.
func TestDialVerdictAfterTimeout(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 10 * time.Second})
	srv := nw.Host(1)
	var accepted transport.Conn
	k.Go(func() {
		l, err := srv.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept()
		if err == nil {
			accepted = c
		}
	})
	dialErrs := make([]error, 0, 2)
	k.Go(func() {
		// Times out at 1 s; the verdict would land at 10 s.
		_, err := nw.Host(0).Dial(transport.Addr{Host: "n1", Port: 80}, time.Second)
		dialErrs = append(dialErrs, err)
		// Immediately park a second waiter (recycles the first); the late
		// verdict at t=10 s must not corrupt it.
		_, err = nw.Host(0).Dial(transport.Addr{Host: "n1", Port: 81}, 30*time.Second)
		dialErrs = append(dialErrs, err)
	})
	k.Run()
	if len(dialErrs) != 2 || !errors.Is(dialErrs[0], transport.ErrTimeout) {
		t.Fatalf("first dial: %v", dialErrs)
	}
	if !errors.Is(dialErrs[1], transport.ErrRefused) {
		t.Fatalf("second dial: %v (late verdict corrupted a recycled waiter?)", dialErrs[1])
	}
	if accepted == nil {
		t.Fatal("server never accepted the (orphaned) connection")
	}
	// The orphan is closed by the dialer's verdict handler: reads observe EOF.
	k.Go(func() {
		buf := make([]byte, 1)
		if _, err := accepted.Read(buf); !errors.Is(err, io.EOF) && !errors.Is(err, transport.ErrClosed) {
			t.Errorf("orphan read: %v, want EOF/closed", err)
		}
	})
	k.Run()
}

// TestPacketDeadlineWaiterRecycled: a ReadFrom deadline fires, the waiter is
// recycled, and a later datagram delivery must not wake the stale entry.
func TestPacketDeadlineWaiterRecycled(t *testing.T) {
	k, nw := newTestNet(t, 2, Symmetric{RTT: 4 * time.Second})
	var firstErr error
	var got []byte
	k.Go(func() {
		pc, err := nw.Host(1).ListenPacket(9000)
		if err != nil {
			t.Errorf("listen packet: %v", err)
			return
		}
		buf := make([]byte, 16)
		pc.SetReadDeadline(k.Now().Add(time.Second)) //nolint:errcheck
		_, _, firstErr = pc.ReadFrom(buf)            // times out at 1 s; dgram lands at 2 s
		pc.SetReadDeadline(time.Time{})              //nolint:errcheck
		n, _, err := pc.ReadFrom(buf)                // must receive the dgram normally
		if err != nil {
			t.Errorf("second read: %v", err)
			return
		}
		got = append(got, buf[:n]...)
	})
	k.Go(func() {
		pc, err := nw.Host(0).ListenPacket(9001)
		if err != nil {
			t.Errorf("sender socket: %v", err)
			return
		}
		pc.WriteTo([]byte("hi"), transport.Addr{Host: "n1", Port: 9000}) //nolint:errcheck
	})
	k.Run()
	if !errors.Is(firstErr, transport.ErrTimeout) {
		t.Fatalf("first read: %v, want timeout", firstErr)
	}
	if string(got) != "hi" {
		t.Fatalf("second read got %q", got)
	}
}
