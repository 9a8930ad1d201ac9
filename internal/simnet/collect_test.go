package simnet

import (
	"runtime"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// connChurn makes and unmakes connections from host 0 to host 1 along every
// teardown path the network has, then drains the kernel. closes connections
// go through Close — the dialer writes and closes at once, so the data and
// the EOF are delivered to a pipe whose writer is gone, and every other
// acceptor hangs up without reading, so the payload lands unread on a
// closed endpoint. held connections at a time sit in a listener's backlog
// when it closes (reset, posted across partitions when there are two) and,
// on a single partition, are cut by SetDown as resets and as silent
// freezes. It returns how many connections were established.
func connChurn(t *testing.T, pk *sim.ParKernel, nw *Network, closes, held int) int {
	t.Helper()
	h0, h1 := nw.Host(0), nw.Host(1)
	payload := make([]byte, 64)
	made := 0
	dial := func(port int) transport.Conn {
		c, err := h0.Dial(transport.Addr{Host: "n1", Port: port}, 0)
		if err != nil {
			t.Errorf("dial :%d: %v", port, err)
			return nil
		}
		made++
		if _, err := c.Write(payload); err != nil {
			t.Errorf("write :%d: %v", port, err)
		}
		return c
	}
	// dialHeld opens held connections and keeps them; drop closes them
	// after the far side has gone, checking the verdict a read reports.
	dialHeld := func(port int) []transport.Conn {
		cs := make([]transport.Conn, 0, held)
		for i := 0; i < held; i++ {
			if c := dial(port); c != nil {
				cs = append(cs, c)
			}
		}
		return cs
	}
	drop := func(cs []transport.Conn, wantErr bool) {
		buf := make([]byte, 8)
		for _, c := range cs {
			if wantErr {
				if _, err := c.Read(buf); err == nil {
					t.Errorf("read on a reset connection succeeded")
				}
			}
			c.Close()
		}
	}

	// Host 1: serve the Close path, then a listener that never accepts.
	pk.Go(h1.Part(), func() {
		l, err := h1.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < closes; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			if i%2 == 1 {
				// Hang up with the dialer's payload still in flight. The
				// write keeps traffic two-way: deliveries and payload
				// buffers recycle into the pool of the partition they
				// arrive on, so only balanced flows hold the pools level.
				c.Write(payload) //nolint:errcheck
				c.Close()
				continue
			}
			pk.Go(h1.Part(), func() {
				// Echo (two-way again); the dialer is gone by then, so
				// the echo too lands on a closed endpoint.
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if err != nil {
						c.Close()
						return
					}
					c.Write(buf[:n]) //nolint:errcheck // peer already closed
				}
			})
		}
		l.Close()
		bl, err := h1.Listen(81)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		h1.kern().Sleep(time.Minute)
		bl.Close() // resets everything queued behind it
	})
	pk.Go(h0.Part(), func() {
		for i := 0; i < closes; i++ {
			if c := dial(80); c != nil {
				c.Close()
			}
		}
		h0.kern().Sleep(time.Second)
		cs := dialHeld(81)
		h0.kern().Sleep(2 * time.Minute)
		drop(cs, true)
	})
	pk.Run()
	if nw.Partitions() > 1 {
		return made // SetDown needs a single event loop
	}

	for _, silent := range []bool{false, true} {
		nw.SetSilentFailures(silent)
		pk.Go(0, func() {
			l, err := h1.Listen(82)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for i := 0; i < held; i++ {
				if _, err := l.Accept(); err != nil {
					t.Errorf("accept %d: %v", i, err)
					return
				}
			}
		})
		pk.Go(0, func() {
			cs := dialHeld(82)
			h0.kern().Sleep(time.Second)
			for _, c := range cs[:len(cs)/2] {
				c.Write(payload) //nolint:errcheck // in flight when the host dies
			}
			h1.SetDown(true)
			h0.kern().Sleep(time.Second)
			// A reset reaches the dialer's end; a silent failure never
			// does, so those are closed blind.
			drop(cs, !silent)
			h1.SetDown(false)
		})
		pk.Run()
	}
	nw.SetSilentFailures(false)
	return made
}

// TestClosedConnsAreCollectable pins the memory plane's rule for
// connections: closed costs nothing. Ten thousand connections are made and
// torn down between two hosts; afterwards the network's own accounting and
// the process's live heap are back where a small warm-up round (same
// concurrency, so every pool is at its high-water mark) left them. Holding
// on to even a twentieth of the pairs fails it.
func TestClosedConnsAreCollectable(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	for _, parts := range []int{1, 2} {
		name := map[int]string{1: "single", 2: "partitioned"}[parts]
		t.Run(name, func(t *testing.T) {
			// A backlog reset is one-way traffic (the dialer's payload and
			// EOF, nothing back), and a delivery recycles into the pool of
			// the partition it arrives on: across two partitions every
			// held connection leaves ~2 pooled deliveries behind. That is
			// pool imbalance, not connection state, so keep it small.
			held := 500
			if parts > 1 {
				held = 50
			}
			pk := sim.NewParKernel(parts, 1, 5*time.Millisecond)
			nw, err := NewPartitioned(pk, Symmetric{RTT: 20 * time.Millisecond}, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			connChurn(t, pk, nw, 2000, held)
			baseFoot, baseHeap := nw.FootprintBytes(), memprof.LiveHeap()

			closes := 10_000 - held
			if parts == 1 {
				closes -= 2 * held
			}
			made := connChurn(t, pk, nw, closes, held)
			if made != 10_000 {
				t.Fatalf("established %d connections, want 10000", made)
			}
			foot, heap := nw.FootprintBytes(), memprof.LiveHeap()
			runtime.KeepAlive(nw)

			for i := 0; i < 2; i++ {
				if n := len(nw.Host(i).conns); n != 0 {
					t.Errorf("host %d still lists %d open connections", i, n)
				}
			}
			if foot > baseFoot+baseFoot/20 {
				t.Errorf("FootprintBytes %d after 10k closed connections, %d before", foot, baseFoot)
			}
			// A resident pair is one 320-byte object before its segs
			// arrays and payload; a twentieth of that is the allowance.
			if slack := uint64(made) * 320 / 20; heap > baseHeap+slack {
				t.Errorf("live heap grew %d bytes over 10k closed connections (baseline %d, allowed %d)",
					heap-baseHeap, baseHeap, slack)
			}
			t.Logf("footprint %d → %d B, live heap %d → %d B", baseFoot, foot, baseHeap, heap)
		})
	}
}
