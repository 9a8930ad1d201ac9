package epidemic

import (
	"fmt"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

func buildNet(t *testing.T, n, fanout int) (*sim.Kernel, []*Node) {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, n, 1)
	rt := core.NewSimRuntime(k, 1)
	var peers []transport.Addr
	for i := 0; i < n; i++ {
		peers = append(peers, transport.Addr{Host: simnet.HostName(i), Port: 8200})
	}
	var nodes []*Node
	cfg := DefaultConfig()
	cfg.Fanout = fanout
	for i := 0; i < n; i++ {
		ctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: peers[i], Position: i + 1}, nil)
		nodes = append(nodes, New(ctx, cfg, peers))
	}
	k.Go(func() {
		for i, node := range nodes {
			if err := node.Start(); err != nil {
				t.Errorf("start %d: %v", i, err)
			}
		}
	})
	return k, nodes
}

func TestBroadcastReachesAll(t *testing.T) {
	const n = 128
	k, nodes := buildNet(t, n, 8) // fanout ≈ ln(128)+3
	k.GoAfter(time.Second, func() {
		nodes[0].Broadcast("r1", []byte("hello"))
	})
	k.RunFor(2 * time.Minute)
	reached := 0
	for _, node := range nodes {
		if _, ok := node.Delivered["r1"]; ok {
			reached++
		}
	}
	if reached < n*97/100 {
		t.Fatalf("rumor reached %d/%d nodes", reached, n)
	}
}

func TestLowFanoutMissesNodes(t *testing.T) {
	// With fanout 1 the epidemic dies out quickly: the sharp-threshold
	// contrast to the test above.
	const n = 128
	k, nodes := buildNet(t, n, 1)
	k.GoAfter(time.Second, func() {
		nodes[0].Broadcast("r1", nil)
	})
	k.RunFor(2 * time.Minute)
	reached := 0
	for _, node := range nodes {
		if _, ok := node.Delivered["r1"]; ok {
			reached++
		}
	}
	if reached > n*3/4 {
		t.Fatalf("fanout-1 epidemic reached %d/%d nodes; threshold effect missing", reached, n)
	}
}

func TestDuplicatesDeliveredOnce(t *testing.T) {
	k, nodes := buildNet(t, 32, 6)
	deliveries := map[int]int{}
	for i, node := range nodes {
		i := i
		node.OnDeliver = func(id string, payload []byte) { deliveries[i]++ }
	}
	k.GoAfter(time.Second, func() {
		nodes[0].Broadcast("x", nil)
		nodes[0].Broadcast("x", nil) // duplicate origination is a no-op
	})
	k.RunFor(time.Minute)
	for i, c := range deliveries {
		if c != 1 {
			t.Fatalf("node %d delivered %d times", i, c)
		}
	}
}

func TestMultipleRumors(t *testing.T) {
	k, nodes := buildNet(t, 64, 7)
	k.GoAfter(time.Second, func() {
		for r := 0; r < 5; r++ {
			nodes[r].Broadcast(fmt.Sprintf("r%d", r), nil)
		}
	})
	k.RunFor(2 * time.Minute)
	for r := 0; r < 5; r++ {
		id := fmt.Sprintf("r%d", r)
		reached := 0
		for _, node := range nodes {
			if _, ok := node.Delivered[id]; ok {
				reached++
			}
		}
		if reached < 60 {
			t.Fatalf("rumor %s reached only %d/64", id, reached)
		}
	}
}
