package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

type env struct {
	k  *sim.Kernel
	nw *simnet.Network
	rt *core.SimRuntime
}

func newEnv(t *testing.T, hosts int) *env {
	t.Helper()
	k := sim.NewKernel()
	return &env{
		k:  k,
		nw: simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, hosts, 1),
		rt: core.NewSimRuntime(k, 1),
	}
}

func (e *env) ctx(host int) *core.AppContext {
	return core.NewAppContext(e.rt, e.nw.Node(host), core.JobInfo{}, nil)
}

func startEchoServer(t *testing.T, ctx *core.AppContext, port int) *Server {
	t.Helper()
	s := NewServer(ctx)
	s.Register("echo", func(args Args) (any, error) {
		return args.String(0), nil
	})
	s.Register("add", func(args Args) (any, error) {
		return args.Int(0) + args.Int(1), nil
	})
	s.Register("fail", func(args Args) (any, error) {
		return nil, errors.New("boom")
	})
	s.Register("slow", func(args Args) (any, error) {
		ctx.Sleep(10 * time.Second)
		return "late", nil
	})
	if err := s.Start(port); err != nil {
		t.Fatalf("start: %v", err)
	}
	return s
}

func TestCallBasics(t *testing.T) {
	e := newEnv(t, 2)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() {
		startEchoServer(t, e.ctx(1), 8000)
	})
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		res, err := c.Call(addr, "echo", "hello")
		if err != nil {
			t.Errorf("echo: %v", err)
			return
		}
		var s string
		if res.Decode(&s); s != "hello" {
			t.Errorf("echo = %q", s)
		}
		res, err = c.Call(addr, "add", 19, 23)
		if err != nil {
			t.Errorf("add: %v", err)
			return
		}
		var n int
		if res.Decode(&n); n != 42 {
			t.Errorf("add = %d", n)
		}
	})
	e.k.Run()
}

func TestRemoteError(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		_, err := c.Call(transport.Addr{Host: "n1", Port: 8000}, "fail")
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom" {
			t.Errorf("err = %v, want RemoteError(boom)", err)
		}
		_, err = c.Call(transport.Addr{Host: "n1", Port: 8000}, "nosuch")
		if !errors.As(err, &re) {
			t.Errorf("unknown method err = %v", err)
		}
	})
	e.k.Run()
}

func TestCallTimeout(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	var took time.Duration
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		start := e.k.Now()
		_, err := c.CallTimeout(transport.Addr{Host: "n1", Port: 8000}, 2*time.Second, "slow")
		took = e.k.Now().Sub(start)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want timeout", err)
		}
	})
	e.k.Run()
	if took != 2*time.Second {
		t.Fatalf("timed out after %s, want 2s", took)
	}
}

func TestDialRefusedPropagates(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() {
		c := NewClient(e.ctx(0))
		_, err := c.Call(transport.Addr{Host: "n1", Port: 9}, "echo", "x")
		if !errors.Is(err, transport.ErrRefused) {
			t.Errorf("err = %v, want refused", err)
		}
	})
	e.k.Run()
}

func TestPing(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		rtt, err := c.Ping(transport.Addr{Host: "n1", Port: 8000}, time.Minute)
		if err != nil {
			t.Errorf("ping: %v", err)
			return
		}
		// Dial handshake (1 RTT) + request/response (1 RTT) = 40ms.
		if rtt != 40*time.Millisecond {
			t.Errorf("ping rtt = %s, want 40ms", rtt)
		}
		// Second ping reuses the pooled connection: just 1 RTT.
		rtt, _ = c.Ping(transport.Addr{Host: "n1", Port: 8000}, time.Minute)
		if rtt != 20*time.Millisecond {
			t.Errorf("pooled ping rtt = %s, want 20ms", rtt)
		}
	})
	e.k.Run()
}

func TestPoolingReusesConnections(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		for i := 0; i < 10; i++ {
			if _, err := c.Call(transport.Addr{Host: "n1", Port: 8000}, "echo", "x"); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	e.k.Run()
	if dials := e.nw.Stats().Dials; dials != 1 {
		t.Fatalf("pooled client dialed %d times, want 1", dials)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	e := newEnv(t, 2)
	sctx := e.ctx(1)
	e.k.Go(func() {
		s := NewServer(sctx)
		s.Register("wait", func(args Args) (any, error) {
			sctx.Sleep(time.Duration(args.Int(0)) * time.Millisecond)
			return args.Int(0), nil
		})
		s.Start(8000)
	})
	done := 0
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		cctx := e.ctx(0)
		for _, d := range []int{500, 300, 100} {
			d := d
			cctx.Go(func() {
				res, err := c.Call(transport.Addr{Host: "n1", Port: 8000}, "wait", d)
				if err != nil {
					t.Errorf("wait(%d): %v", d, err)
					return
				}
				var got int
				res.Decode(&got)
				if got != d {
					t.Errorf("wait(%d) = %d", d, got)
				}
				done++
			})
		}
	})
	e.k.Run()
	if done != 3 {
		t.Fatalf("completed %d calls, want 3", done)
	}
	// All three calls multiplex over one connection and overlap: the
	// slowest is 500ms, so everything ends well before 1s after start.
	if e.k.Since() > 2*time.Second {
		t.Fatalf("calls did not overlap: finished at %s", e.k.Since())
	}
}

func TestServerDeathFailsPendingCalls(t *testing.T) {
	e := newEnv(t, 2)
	sctx := e.ctx(1)
	e.k.Go(func() {
		s := NewServer(sctx)
		s.Register("hang", func(Args) (any, error) {
			sctx.Sleep(time.Hour)
			return nil, nil
		})
		s.Start(8000)
	})
	var err error
	var at time.Duration
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		_, err = c.Call(transport.Addr{Host: "n1", Port: 8000}, "hang")
		at = e.k.Since()
	})
	e.k.GoAfter(2*time.Second, func() {
		e.nw.Host(1).SetDown(true)
	})
	e.k.Run()
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want connection failure", err)
	}
	if at > 3*time.Second {
		t.Fatalf("failure detected at %s, want ≈2s", at)
	}
}

// TestDropRateCausesTimeouts: a fault hook that drops every request (the
// paper's library-level lossy link) fails each call by timeout.
func TestDropRateCausesTimeouts(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	timeouts := 0
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		c.Fault = func(transport.Addr, string) (bool, time.Duration) { return true, 0 }
		for i := 0; i < 3; i++ {
			if _, err := c.CallTimeout(transport.Addr{Host: "n1", Port: 8000}, time.Second, "echo", "x"); errors.Is(err, ErrTimeout) {
				timeouts++
			}
		}
	})
	e.k.Run()
	if timeouts != 3 {
		t.Fatalf("timeouts = %d, want 3", timeouts)
	}
}

func TestManyClientsOneServer(t *testing.T) {
	const clients = 20
	e := newEnv(t, clients+1)
	sctx := e.ctx(clients)
	e.k.Go(func() {
		s := NewServer(sctx)
		n := 0
		s.Register("inc", func(Args) (any, error) { n++; return n, nil })
		s.Start(8000)
	})
	results := map[int]bool{}
	e.k.GoAfter(time.Second, func() {
		for i := 0; i < clients; i++ {
			i := i
			cctx := e.ctx(i)
			cctx.Go(func() {
				c := NewClient(cctx)
				res, err := c.Call(transport.Addr{Host: fmt.Sprintf("n%d", clients), Port: 8000}, "inc")
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				var v int
				res.Decode(&v)
				results[v] = true
			})
		}
	})
	e.k.Run()
	if len(results) != clients {
		t.Fatalf("distinct results = %d, want %d (handler must run per request)", len(results), clients)
	}
}

// TestClientReleasesDeadPeers pins core.AppContext.Track's contract on both
// ends of the fabric: an instance tracks what it has open — its listener
// and its live connections — not every connection it ever dialed or
// served. Pooled peers whose servers die are untracked when they fail, and
// a hundred clients that come and go leave nothing behind on the server —
// in simulation (event-driven readers) and over loopback TCP (task-based
// serveConn and readLoop, what a production splayd runs).
func TestClientReleasesDeadPeers(t *testing.T) {
	t.Run("sim", testReleasesDeadPeersSim)
	t.Run("live", testReleasesClosedConnsLive)
}

func testReleasesDeadPeersSim(t *testing.T) {
	const servers = 4
	e := newEnv(t, 1+servers)
	cctx := e.ctx(0)
	sctxs := make([]*core.AppContext, servers)
	addrs := make([]transport.Addr, servers)
	e.k.Go(func() {
		startEchoServer(t, cctx, 8000) // the client instance serves too
		for i := range sctxs {
			sctxs[i] = e.ctx(1 + i)
			addrs[i] = transport.Addr{Host: simnet.HostName(1 + i), Port: 8000}
			startEchoServer(t, sctxs[i], 8000)
		}
	})
	tracked := func(when string, ctx *core.AppContext, want int) {
		t.Helper()
		if got := ctx.Tracked(); got != want {
			t.Errorf("%s: %d closers tracked, want %d", when, got, want)
		}
	}
	e.k.GoAfter(time.Second, func() {
		c := NewClient(cctx)
		for _, a := range addrs {
			if _, err := c.Call(a, "echo", "x"); err != nil {
				t.Errorf("echo %s: %v", a, err)
			}
		}
		tracked("pooled, all up", cctx, 1+servers)

		// Two servers die; their pooled connections are reset, fail, and
		// take their closers entries with them.
		e.nw.Host(3).SetDown(true)
		e.nw.Host(4).SetDown(true)
		cctx.Sleep(time.Second)
		tracked("pooled, two down", cctx, 1+servers-2)
		if _, err := c.CallTimeout(addrs[2], time.Second, "echo", "x"); err == nil {
			t.Errorf("call to a dead server succeeded")
		}
		tracked("after a refused redial", cctx, 1+servers-2)

		// A hundred client instances, each dying after its call.
		for i := 0; i < 100; i++ {
			short := e.ctx(0)
			_, err := NewClient(short).Call(addrs[0], "echo", "x")
			short.Kill()
			if err != nil {
				t.Errorf("short-lived client %d: %v", i, err)
				return
			}
		}
		cctx.Sleep(time.Second) // let the last EOF reach the server
		// The server's side of it: its listener and the one pooled
		// connection still open from the first client.
		tracked("server, after serving them", sctxs[0], 2)
	})
	e.k.Run()
}

func testReleasesClosedConnsLive(t *testing.T) {
	rt := core.NewLiveRuntime(1)
	sctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
	defer sctx.Kill()
	srv := NewServer(sctx)
	srv.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
	if err := srv.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
	addr := transport.Addr{Host: "127.0.0.1", Port: srv.Addr().Port}

	// Each client instance dies after its call, closing its connection.
	for i := 0; i < 100; i++ {
		cctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
		_, err := NewClient(cctx).CallTimeout(addr, 10*time.Second, "echo", "x")
		cctx.Kill()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// The server untracks as each serve loop sees its EOF.
	deadline := time.Now().Add(10 * time.Second)
	for sctx.Tracked() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sctx.Tracked(); got != 1 {
		t.Errorf("server tracks %d closers after its 100 connections closed, want 1 (the listener)", got)
	}
}
