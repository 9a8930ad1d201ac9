package rpc

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// pooled reports how many peers c pools, dialing ones included.
func pooled(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

func echoAddr(host int) transport.Addr {
	return transport.Addr{Host: simnet.HostName(host), Port: 8000}
}

// farLink is a symmetric network with one host far away from the others,
// so a dial to it stays in flight while the rest of a test runs.
type farLink struct {
	simnet.Symmetric
	far   int
	delay time.Duration
}

func (l farLink) Delay(a, b int) time.Duration {
	if a == l.far || b == l.far {
		return l.delay
	}
	return l.Symmetric.Delay(a, b)
}

// TestPooledPeersCapped: a client keeps at most maxPooledPeers peers open,
// the least recently used idle one making room for a new dial; a peer in
// use or still dialing is never closed; an evicted peer is redialed on its
// next call, and that dial is not counted as a redial.
func TestPooledPeersCapped(t *testing.T) {
	t.Run("many peers", func(t *testing.T) {
		const hosts = 4000
		e := newEnv(t, hosts)
		sctxs := make([]*core.AppContext, hosts)
		e.k.Go(func() {
			for i := 1; i < hosts; i++ {
				sctxs[i] = e.ctx(i)
				startEchoServer(t, sctxs[i], 8000)
			}
		})
		cctx := e.ctx(0)
		c := NewClient(cctx)
		e.k.GoAfter(time.Second, func() {
			for i := 1; i < hosts; i++ {
				if _, err := c.Call(echoAddr(i), "echo", "x"); err != nil {
					t.Errorf("echo n%d: %v", i, err)
					return
				}
				if n := pooled(c); n > maxPooledPeers {
					t.Errorf("after calling n%d the client pools %d peers, cap %d", i, n, maxPooledPeers)
					return
				}
			}
		})
		e.k.Run()
		if n := cctx.Tracked(); n > maxPooledPeers {
			t.Errorf("client tracks %d connections after calling %d servers, want ≤ %d", n, hosts-1, maxPooledPeers)
		}
		// Each server holds its listener, and the evicted connections'
		// server ends went with them.
		served := 0
		for i := 1; i < hosts; i++ {
			served += sctxs[i].Tracked() - 1
		}
		if served != cctx.Tracked() {
			t.Errorf("servers track %d connections, the client %d", served, cctx.Tracked())
		}
		if dials := e.nw.Stats().Dials; dials != hosts-1 {
			t.Errorf("%d dials for %d servers called once each", dials, hosts-1)
		}
	})

	t.Run("busy peers stay", func(t *testing.T) {
		// n1 serves a 10 s call, n2 is 5 s away, n3..n22 answer at once.
		const others = 20
		k := sim.NewKernel()
		link := farLink{Symmetric: simnet.Symmetric{RTT: 20 * time.Millisecond}, far: 2, delay: 5 * time.Second}
		e := &env{k: k, nw: simnet.New(k, link, 3+others, 1), rt: core.NewSimRuntime(k, 1)}
		e.k.Go(func() {
			for i := 1; i < 3+others; i++ {
				startEchoServer(t, e.ctx(i), 8000)
			}
		})
		c := NewClient(e.ctx(0))
		var slow, far1, far2 string
		call := func(out *string, host int, method string) {
			res, err := c.Call(echoAddr(host), method, "far")
			if err != nil {
				t.Errorf("%s on n%d: %v", method, host, err)
				return
			}
			res.Decode(out) //nolint:errcheck
		}
		e.k.GoAfter(time.Second, func() { call(&slow, 1, "slow") })
		e.k.GoAfter(time.Second, func() { call(&far1, 2, "echo") }) // dials n2
		e.k.GoAfter(time.Second, func() { call(&far2, 2, "echo") }) // parks on that dial
		e.k.GoAfter(2*time.Second, func() {
			// Twenty fresh dials push the pool past its cap again and
			// again while n1's call and n2's dial are in flight.
			for i := 3; i < 3+others; i++ {
				if _, err := c.Call(echoAddr(i), "echo", "x"); err != nil {
					t.Errorf("echo n%d: %v", i, err)
				}
			}
			if n := pooled(c); n != maxPooledPeers {
				t.Errorf("pool holds %d peers, want %d", n, maxPooledPeers)
			}
		})
		e.k.Run()
		if slow != "late" || far1 != "far" || far2 != "far" {
			t.Errorf("busy calls returned %q, %q, %q; want late, far, far", slow, far1, far2)
		}
		if dials := e.nw.Stats().Dials; dials != 2+others {
			t.Errorf("%d dials, want %d: a busy peer was closed and redialed", dials, 2+others)
		}
	})

	t.Run("least recently used goes", func(t *testing.T) {
		const servers = maxPooledPeers + 1
		e := newEnv(t, 1+servers)
		e.k.Go(func() {
			for i := 1; i <= servers; i++ {
				startEchoServer(t, e.ctx(i), 8000)
			}
		})
		ins := NewInstruments(metrics.NewRegistry())
		cctx := e.ctx(0)
		c := NewClient(cctx)
		c.SetInstruments(ins)
		echo := func(host int) {
			if _, err := c.Call(echoAddr(host), "echo", "x"); err != nil {
				t.Errorf("echo n%d: %v", host, err)
			}
		}
		dials := func() uint64 { return e.nw.Stats().Dials }
		e.k.GoAfter(time.Second, func() {
			for i := 1; i < servers; i++ {
				echo(i)
			}
			echo(1) // a pooled hit: n1 is now the most recently used
			echo(servers)
			if n := cctx.Tracked(); n != maxPooledPeers {
				t.Errorf("client tracks %d connections, want %d", n, maxPooledPeers)
			}
			before := dials()
			echo(1) // still pooled: n2 was evicted, not n1
			if d := dials() - before; d != 0 {
				t.Errorf("calling the most recently used peer dialed %d times", d)
			}
			echo(2) // evicted: redials and succeeds
			if d := dials() - before; d != 1 {
				t.Errorf("calling the evicted peer dialed %d times, want 1", d)
			}
		})
		e.k.Run()
		if r := ins.Redials.Total(); r != 0 {
			t.Errorf("evictions counted as %d redials", r)
		}
		if ins.Errors.Total() != 0 {
			t.Errorf("%d calls failed", ins.Errors.Total())
		}
	})
}

// TestPoolFitsASocketLimit: an instance allowed 24 sockets calls 100
// distinct peers in turn. An unbounded pool kept every connection open
// and ran into transport.ErrLimit at the 25th peer; the capped pool closes
// the least recently used one and never holds more than maxPooledPeers.
func TestPoolFitsASocketLimit(t *testing.T) {
	const peers = 100
	e := newEnv(t, 1+peers)
	e.k.Go(func() {
		for i := 1; i <= peers; i++ {
			startEchoServer(t, e.ctx(i), 8000)
		}
	})
	node := sandbox.Wrap(e.nw.Node(0), sandbox.NetLimits{MaxSockets: 24})
	c := NewClient(core.NewAppContext(e.rt, node, core.JobInfo{}, nil))
	most := 0
	e.k.GoAfter(time.Second, func() {
		for i := 1; i <= peers; i++ {
			if _, err := c.Call(echoAddr(i), "echo", "x"); err != nil {
				t.Errorf("echo n%d of %d: %v", i, peers, err)
				return
			}
			most = max(most, node.OpenSockets())
		}
	})
	e.k.Run()
	if most > maxPooledPeers {
		t.Errorf("the instance held %d sockets at most, want ≤ %d", most, maxPooledPeers)
	}
}
