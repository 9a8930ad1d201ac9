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
// live heap: one client makes one echo call to each of 3,999 servers and
// keeps the connections pooled; the HeapAlloc delta over the calls,
// divided by the connection count, is the per-connection cost, both ends
// and the simulated network included. Killing the client must then free
// them all: a second client doing the same and being killed leaves the
// heap where the first one's kill left it, up to a twentieth of the
// budget per connection — closed costs nothing.
func TestIdleConnectionBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const hosts = 4000
	const conns = hosts - 1
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, hosts, 1)
	rt := core.NewSimRuntime(k, 1)
	for i := 1; i < hosts; i++ {
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

	// round dials every server from a fresh client, reports the live heap
	// with the connections idle in its pool, then kills it and reports
	// the heap once the closes have been delivered.
	round := func() (idle, closed uint64) {
		ctx := core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil)
		c := NewClient(ctx)
		k.Go(func() {
			for i := 1; i < hosts; i++ {
				if _, err := c.Call(transport.Addr{Host: simnet.HostName(i), Port: 8000}, "echo", "x"); err != nil {
					t.Errorf("echo n%d: %v", i, err)
					return
				}
			}
		})
		k.Run()
		if n := ctx.Tracked(); n != conns {
			t.Fatalf("client tracks %d connections, want %d", n, conns)
		}
		idle = memprof.LiveHeap()
		ctx.Kill()
		k.Run()
		runtime.KeepAlive(c)
		return idle, memprof.LiveHeap()
	}

	base := memprof.LiveHeap()
	idle, closed := round()
	perConn := float64(int64(idle)-int64(base)) / conns
	t.Logf("idle pooled connection: %.1f B (budget %d); %d B left after the kill", perConn, idleConnBudget, int64(closed)-int64(base))
	if perConn > idleConnBudget {
		t.Errorf("an idle pooled connection pins %.1f B, budget %d", perConn, idleConnBudget)
	}

	idle2, closed2 := round()
	t.Logf("second round: %.1f B per idle connection; heap after its kill %+d B from the first", float64(int64(idle2)-int64(closed))/conns, int64(closed2)-int64(closed))
	if slack := uint64(conns * idleConnBudget / 20); closed2 > closed+slack {
		t.Errorf("killing the second client left %d B more than killing the first (allowed %d): closed connections are being retained",
			closed2-closed, slack)
	}
	runtime.KeepAlive(nw)
}
