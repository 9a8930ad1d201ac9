package cyclon

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// fullView is a ViewSize view of peers that do not exist (no round ever
// contacts them), aged from 0 up.
func fullView(from int) []Entry {
	v := make([]Entry, 0, 20)
	for i := range 20 {
		v = append(v, Entry{Addr: transport.Addr{Host: simnet.HostName(from + i), Port: 8100}, Age: i % 7})
	}
	return v
}

// BenchmarkCyclonShuffle prices one gossip round on a two-host network:
// the initiator ages its view, samples, calls; the responder samples its
// reply and merges; the initiator merges the reply. Both views are reset
// to full ones before every round — the initiator's holding the responder
// as its oldest peer — so each round evicts on both sides. One warm-up
// round dials the pooled connection; CI gates allocs/op.
func BenchmarkCyclonShuffle(b *testing.B) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	var nodes [2]*Node
	for i := range nodes {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 8100}
		nodes[i] = New(core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: addr}, nil), DefaultConfig())
	}
	initiator, resp := nodes[0], nodes[1]
	initiatorView := append(fullView(100)[:19], Entry{Addr: resp.self, Age: 50})
	respView := fullView(200)
	k.Go(func() {
		s := rpc.NewServer(resp.ctx)
		s.Register("shuffle", resp.handleShuffle)
		if err := s.Start(resp.self.Port); err != nil {
			b.Errorf("start: %v", err)
		}
	})
	rounds := func(n int) {
		k.Go(func() {
			for i := 0; i < n; i++ {
				initiator.setView(initiatorView)
				resp.setView(respView)
				initiator.shuffle()
			}
		})
		k.Run()
	}
	rounds(1)
	b.ReportAllocs()
	b.ResetTimer()
	rounds(b.N)
	b.StopTimer()
	if initiator.Shuffles != uint64(b.N)+1 {
		b.Fatalf("%d of %d rounds completed", initiator.Shuffles, b.N+1)
	}
}
