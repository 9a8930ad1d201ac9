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

// TestIdlePeersSwept: a new dial closes every pooled peer that has sat
// idle longer than maxIdle — even when the pool is far below its cap and
// the dial itself is refused — and frees both its ends; a peer used more
// recently survives, and so does one whose call has been in flight for
// longer than maxIdle. The sweep is lazy: a client that stops dialing
// keeps its peers and leaves nothing armed on the kernel.
func TestIdlePeersSwept(t *testing.T) {
	e := newEnv(t, 5)
	sctxs := make([]*core.AppContext, 4)
	e.k.Go(func() {
		for i := 1; i <= 3; i++ {
			sctxs[i] = e.ctx(i)
			s := startEchoServer(t, sctxs[i], 8000)
			s.Register("hang", func(Args) (any, error) {
				sctxs[i].Sleep(2 * maxIdle)
				return "done", nil
			})
		}
	})
	cctx := e.ctx(0)
	c := NewClient(cctx)
	tracked := func(what string, ctx *core.AppContext, want int) {
		t.Helper()
		if got := ctx.Tracked(); got != want {
			t.Errorf("%s tracks %d, want %d", what, got, want)
		}
	}
	echo := func(host int) {
		if _, err := c.Call(echoAddr(host), "echo", "x"); err != nil {
			t.Errorf("echo n%d: %v", host, err)
		}
	}
	var hung string
	var quiet time.Time
	e.k.GoAfter(time.Second, func() {
		res, err := c.Call(echoAddr(3), "hang")
		if err != nil {
			t.Errorf("hang on n3: %v", err)
			return
		}
		res.Decode(&hung) //nolint:errcheck
		quiet = cctx.Now()
	})
	e.k.GoAfter(time.Second, func() {
		echo(1) // idle from here on
		cctx.Sleep(maxIdle / 2)
		echo(2) // idle from here on, half as long
		cctx.Sleep(maxIdle/2 + time.Second)
		// n1 has been idle for maxIdle + 1 s, n2 for half that, and n3's
		// call has been in flight for as long as n1 sat idle.
		tracked("the client, before the sweep", cctx, 3)
		footprint := e.nw.FootprintBytes()
		if _, err := c.CallTimeout(echoAddr(4), time.Second, "echo", "x"); err == nil {
			t.Error("a call to n4, which serves nothing, succeeded")
		}
		cctx.Sleep(time.Second) // let the close reach n1
		tracked("the client, after the sweep", cctx, 2)
		tracked("n1 (its listener)", sctxs[1], 1)
		tracked("n2", sctxs[2], 2)
		tracked("n3", sctxs[3], 2)
		if after := e.nw.FootprintBytes(); after >= footprint {
			t.Errorf("simnet holds %d B after the sweep, %d before: the swept pair was kept", after, footprint)
		}
	})
	e.k.Run()
	if hung != "done" {
		t.Errorf("the call in flight across the sweep returned %q, want done", hung)
	}
	// Nothing dials after the hung call returned: the idle peers stay
	// open, and no timer of the pool's outlived that call.
	tracked("the quiet client", cctx, 2)
	if now := e.k.Now(); now.After(quiet) {
		t.Errorf("the kernel ran until %v, %v after the client's last call", now, now.Sub(quiet))
	}
}
