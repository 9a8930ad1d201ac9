package rpc

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestLoneReplyQueuesOnPooledBacking pins the steady-state garbage of a
// call whose reply finds the writer idle: the reply rides the queue
// backing of the pooled replyFlush, not a fresh queue slice — one
// allocation per call fewer (38 per ten nil-result calls; 48 when every
// lone reply allocated its queue). Ten calls per kernel run amortize the
// run's own spawn.
func TestLoneReplyQueuesOnPooledBacking(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	addr := transport.Addr{Host: "n1", Port: 8000}
	sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: addr}, nil)
	k.Go(func() {
		s := NewServer(sctx)
		s.Register("notify", func(Args) (any, error) { return nil, nil })
		if err := s.Start(8000); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	c := NewClient(core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil))
	calls := func() {
		for i := 0; i < 10; i++ {
			if _, err := c.Call(addr, "notify", 7); err != nil {
				t.Errorf("call: %v", err)
			}
		}
	}
	k.Go(calls) // warm the pooled connection and every buffer pool
	k.Run()
	perRun := testing.AllocsPerRun(100, func() {
		k.Go(calls)
		k.Run()
	})
	t.Logf("%.0f allocations per 10 calls", perRun)
	if perRun > 40 {
		t.Fatalf("%.0f allocations per 10 nil-result calls, want at most 40: a lone reply is allocating its queue again", perRun)
	}
}
