package rpc

import (
	"runtime"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// idleConnBudget is what one open, idle pooled connection may pin: the
// client's peerConn, the server's serverConn, simnet's connPair and both
// pipes' segment arrays, and their slots in the hosts' connection tables
// and the instances' closer lists. It was 897 bytes before the connection
// state was cut down to storing each fact once.
const idleConnBudget = 704

// TestIdleConnectionBytes prices an idle pooled RPC connection on the
// live heap. A pool holds at most maxPooledPeers, so 4,000 connections
// are spread over 250 clients, each on its own host, that call each of
// 16 servers once, one call at a time: every pool is exactly full and
// nothing is evicted. The HeapAlloc delta over the calls, divided by the
// connection count, is the per-connection cost, both ends and the
// simulated network included. Killing the clients must then free them
// all: a second set doing the same and being killed leaves the heap where
// the first set's kill left it, up to a twentieth of the budget per
// connection — closed costs nothing.
func TestIdleConnectionBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const servers, clients = maxPooledPeers, 250
	const conns = servers * clients
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, servers+clients, 1)
	rt := core.NewSimRuntime(k, 1)
	for i := 0; i < servers; i++ {
		sctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{}, nil)
		k.Go(func() {
			s := NewServer(sctx)
			s.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
			if err := s.Start(8000); err != nil {
				t.Errorf("server: %v", err)
			}
		})
	}
	k.Run()

	// round starts the clients, dials every server from each, reports the
	// live heap before the calls and with the connections idle in the
	// pools, then kills the clients and reports the heap once the closes
	// have been delivered.
	round := func() (base, idle, closed uint64) {
		ctxs := make([]*core.AppContext, clients)
		cs := make([]*Client, clients)
		for j := range ctxs {
			ctxs[j] = core.NewAppContext(rt, nw.Node(servers+j), core.JobInfo{}, nil)
			cs[j] = NewClient(ctxs[j])
		}
		base = memprof.LiveHeap()
		k.Go(func() {
			for _, c := range cs {
				for i := 0; i < servers; i++ {
					if _, err := c.Call(transport.Addr{Host: simnet.HostName(i), Port: 8000}, "echo", "x"); err != nil {
						t.Errorf("echo n%d: %v", i, err)
						return
					}
				}
			}
		})
		k.Run()
		for _, ctx := range ctxs {
			if n := ctx.Tracked(); n != servers {
				t.Fatalf("client tracks %d connections, want %d", n, servers)
			}
		}
		idle = memprof.LiveHeap()
		for _, ctx := range ctxs {
			ctx.Kill()
		}
		k.Run()
		runtime.KeepAlive(cs)
		return base, idle, memprof.LiveHeap()
	}

	base, idle, closed := round()
	perConn := float64(int64(idle)-int64(base)) / conns
	t.Logf("idle pooled connection: %.1f B (budget %d); %d B left after the kill", perConn, idleConnBudget, int64(closed)-int64(base))
	if perConn > idleConnBudget {
		t.Errorf("an idle pooled connection pins %.1f B, budget %d", perConn, idleConnBudget)
	}

	base2, idle2, closed2 := round()
	t.Logf("second round: %.1f B per idle connection; heap after its kill %+d B from the first", float64(int64(idle2)-int64(base2))/conns, int64(closed2)-int64(closed))
	if slack := uint64(conns * idleConnBudget / 20); closed2 > closed+slack {
		t.Errorf("killing the second set of clients left %d B more than killing the first (allowed %d): closed connections are being retained",
			closed2-closed, slack)
	}
	runtime.KeepAlive(nw)
}
