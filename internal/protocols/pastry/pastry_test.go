package pastry

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

func TestIDJSONRoundTrip(t *testing.T) {
	for _, id := range []ID{0, 1, 0xdeadbeefcafe1234, ^ID(0)} {
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var out ID
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out != id {
			t.Fatalf("round trip %s -> %s", id, out)
		}
	}
	var bad ID
	if err := json.Unmarshal([]byte(`"zz"`), &bad); err == nil {
		t.Fatal("parsed invalid id")
	}
}

func TestDigitsAndPrefix(t *testing.T) {
	id := ID(0x123456789abcdef0)
	if id.Digit(0) != 1 || id.Digit(1) != 2 || id.Digit(15) != 0 {
		t.Fatalf("digits wrong: %d %d %d", id.Digit(0), id.Digit(1), id.Digit(15))
	}
	if CommonPrefix(0x1234000000000000, 0x1235000000000000) != 3 {
		t.Fatal("prefix wrong")
	}
	if CommonPrefix(5, 5) != Digits {
		t.Fatal("self prefix wrong")
	}
}

func TestQuickPrefixDigitConsistency(t *testing.T) {
	f := func(a, b uint64) bool {
		p := CommonPrefix(ID(a), ID(b))
		for i := 0; i < p; i++ {
			if ID(a).Digit(i) != ID(b).Digit(i) {
				return false
			}
		}
		if p < Digits && ID(a).Digit(p) == ID(b).Digit(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistSymmetry(t *testing.T) {
	f := func(a, b uint64) bool {
		if Dist(ID(a), ID(b)) != Dist(ID(b), ID(a)) {
			return false
		}
		return Dist(ID(a), ID(a)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// testNet builds n started Pastry nodes over a symmetric network.
type testNet struct {
	k     *sim.Kernel
	nw    *simnet.Network
	rt    *core.SimRuntime
	nodes []*Node
	ctxs  []*core.AppContext
}

func newTestNet(t *testing.T, n int, cfg Config, seed int64) *testNet {
	t.Helper()
	k := sim.NewKernel()
	tn := &testNet{
		k:  k,
		nw: simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, n, seed),
		rt: core.NewSimRuntime(k, seed),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 9000}
		ctx := core.NewAppContext(tn.rt, tn.nw.Node(i), core.JobInfo{Me: addr, Position: i + 1}, nil)
		c := cfg
		id := ID(rng.Uint64())
		c.ID = &id
		tn.nodes = append(tn.nodes, New(ctx, c))
		tn.ctxs = append(tn.ctxs, ctx)
	}
	tn.k.Go(func() {
		for _, node := range tn.nodes {
			if err := node.Start(); err != nil {
				t.Errorf("start: %v", err)
			}
		}
	})
	tn.k.Run()
	return tn
}

func TestStaticBuildRouting(t *testing.T) {
	tn := newTestNet(t, 256, DefaultConfig(), 1)
	if err := BuildNetwork(tn.nodes, 1); err != nil {
		t.Fatal(err)
	}
	if err := CheckLeafsets(tn.nodes); err != nil {
		t.Fatal(err)
	}
	hops, routes := 0, 0
	tn.k.Go(func() {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 300; i++ {
			src := tn.nodes[rng.Intn(len(tn.nodes))]
			key := ID(rng.Uint64())
			res, err := src.Route(key)
			if err != nil {
				t.Errorf("route: %v", err)
				continue
			}
			if want := OwnerOf(tn.nodes, key); res.Root.Addr != want.Addr {
				t.Errorf("route(%s) = %s, want %s", key, res.Root, want)
			}
			hops += res.Hops
			routes++
		}
	})
	tn.k.Run()
	mean := float64(hops) / float64(routes)
	// log16(256) = 2; with leafset shortcuts the mean sits near 2.
	if mean > 3.5 {
		t.Fatalf("mean hops %.2f too high for 256 nodes", mean)
	}
}

func TestJoinProtocol(t *testing.T) {
	tn := newTestNet(t, 24, DefaultConfig(), 3)
	seed := tn.nodes[0].Self().Addr
	for i := 1; i < len(tn.nodes); i++ {
		i := i
		tn.k.GoAfter(time.Duration(i)*time.Second, func() {
			if err := tn.nodes[i].Join(seed); err != nil {
				t.Errorf("join %d: %v", i, err)
			}
		})
	}
	tn.k.Go(func() {
		for _, n := range tn.nodes {
			n.StartMaintenance()
		}
	})
	tn.k.RunFor(4 * time.Minute)

	ok := 0
	tn.k.Go(func() {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 100; i++ {
			src := tn.nodes[rng.Intn(len(tn.nodes))]
			key := ID(rng.Uint64())
			res, err := src.Route(key)
			if err != nil {
				continue
			}
			if want := OwnerOf(tn.nodes, key); res.Root.Addr == want.Addr {
				ok++
			}
		}
	})
	tn.k.RunFor(5 * time.Minute)
	if ok < 97 {
		t.Fatalf("only %d/100 routes correct after joins", ok)
	}
}

func TestRepairAfterFailures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RPCTimeout = 5 * time.Second
	cfg.MaintainEvery = 5 * time.Second
	tn := newTestNet(t, 64, cfg, 5)
	if err := BuildNetwork(tn.nodes, 5); err != nil {
		t.Fatal(err)
	}
	tn.k.Go(func() {
		for _, n := range tn.nodes {
			n.StartMaintenance()
		}
	})
	// Kill 25% of nodes at t = 20s.
	rng := rand.New(rand.NewSource(6))
	dead := map[int]bool{}
	for len(dead) < 16 {
		dead[rng.Intn(64)] = true
	}
	tn.k.GoAfter(20*time.Second, func() {
		for i := range dead {
			tn.nw.Host(i).SetDown(true)
			tn.ctxs[i].Kill()
		}
	})
	tn.k.RunFor(5 * time.Minute)

	var live []*Node
	for i, n := range tn.nodes {
		if !dead[i] {
			live = append(live, n)
		}
	}
	ok, fails := 0, 0
	tn.k.Go(func() {
		for i := 0; i < 100; i++ {
			src := live[rng.Intn(len(live))]
			key := ID(rng.Uint64())
			res, err := src.Route(key)
			if err != nil {
				fails++
				continue
			}
			if want := OwnerOf(live, key); res.Root.Addr == want.Addr {
				ok++
			} else {
				fails++
			}
		}
	})
	tn.k.RunFor(10 * time.Minute)
	if ok < 95 {
		t.Fatalf("after repair: %d ok, %d failed", ok, fails)
	}
}

func TestRouteFailsWithoutAlternates(t *testing.T) {
	// A two-node net where the peer dies: routing to its id range fails
	// after suspicion exhausts alternates (an honest route failure).
	tn := newTestNet(t, 2, DefaultConfig(), 7)
	if err := BuildNetwork(tn.nodes, 7); err != nil {
		t.Fatal(err)
	}
	var rerr error
	tn.k.Go(func() {
		tn.nw.Host(1).SetDown(true)
		_, rerr = tn.nodes[0].Route(tn.nodes[1].Self().ID)
	})
	tn.k.Run()
	if rerr != nil {
		// Acceptable: route failed cleanly.
		return
	}
	// Also acceptable: node 0 becomes root itself after suspecting the
	// peer — then the route result must be node 0.
}

func TestLeafInsertOrderingProperty(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	nw := simnet.New(k, simnet.Symmetric{}, 1, 1)
	ctx := core.NewAppContext(rt, nw.Node(0), core.JobInfo{Me: transport.Addr{Host: "n0", Port: 9000}}, nil)
	cfg := DefaultConfig()
	id := ID(1 << 63)
	cfg.ID = &id
	n := New(ctx, cfg)

	f := func(raw []uint64) bool {
		n.left, n.right = nil, nil
		for i, v := range raw {
			n.leafInsert(NodeRef{ID: ID(v), Addr: transport.Addr{Host: "x", Port: i + 1}})
		}
		// Right side must be sorted by clockwise distance, left by
		// counter-clockwise; capacity respected.
		if len(n.right) > halfLeaf || len(n.left) > halfLeaf {
			return false
		}
		for i := 1; i < len(n.right); i++ {
			if CWDist(n.self.ID, n.right[i-1].ID) > CWDist(n.self.ID, n.right[i].ID) {
				return false
			}
		}
		for i := 1; i < len(n.left); i++ {
			if CWDist(n.left[i-1].ID, n.self.ID) > CWDist(n.left[i].ID, n.self.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopConvergesToOwner(t *testing.T) {
	// Pure local-decision walk (no RPC) must reach the true owner in a
	// bounded number of steps on a converged network.
	tn := newTestNet(t, 128, DefaultConfig(), 8)
	if err := BuildNetwork(tn.nodes, 8); err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]*Node{}
	for _, n := range tn.nodes {
		byAddr[n.Self().Addr.String()] = n
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		key := ID(rng.Uint64())
		cur := tn.nodes[rng.Intn(len(tn.nodes))]
		steps := 0
		for {
			next, root := cur.NextHop(key)
			if root {
				break
			}
			cur = byAddr[next.Addr.String()]
			steps++
			if steps > 10 {
				t.Fatalf("walk for %s did not converge", key)
			}
		}
		if want := OwnerOf(tn.nodes, key); cur.Self().Addr != want.Addr {
			t.Fatalf("walk(%s) ended at %s, want %s", key, cur.Self(), want)
		}
	}
}

// hostDelays is a link model in which host i sits hostDelays[i] away
// from a central switch.
type hostDelays []time.Duration

func (m hostDelays) Delay(a, b int) time.Duration {
	if a == b {
		return 0
	}
	return m[a] + m[b]
}
func (hostDelays) Loss(a, b int) float64   { return 0 }
func (hostDelays) UplinkBps(int) float64   { return 0 }
func (hostDelays) DownlinkBps(int) float64 { return 0 }

// TestContestedSlotKeepsFasterLiveNode: the locality-aware table keeps,
// of two candidates for one routing-table slot, the one that answers a
// ping sooner, whichever is offered first, and replaces an entry that no
// longer answers — also when both candidates are offered at once against
// a dead entry, so their probes race.
func TestContestedSlotKeepsFasterLiveNode(t *testing.T) {
	const self, fast, slow, dead = 0, 1, 2, 3
	ids := []ID{0x1000000000000000, 0x5000000000000001, 0x5000000000000002, 0x5000000000000003}
	for _, tc := range []struct {
		name   string
		offers [][]int // each inner list is offered in one task
	}{
		{"slower first", [][]int{{slow}, {fast}}},
		{"faster first", [][]int{{fast}, {slow}}},
		{"dead current entry", [][]int{{dead}, {slow}, {fast}}},
		{"both at once against a dead entry", [][]int{{dead}, {fast, slow}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			model := hostDelays{time.Millisecond, 2 * time.Millisecond, 50 * time.Millisecond, 2 * time.Millisecond}
			nw := simnet.New(k, model, len(model), 1)
			rt := core.NewSimRuntime(k, 1)
			var nodes []*Node
			for i := range model {
				cfg := DefaultConfig()
				cfg.ID = &ids[i]
				ctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: transport.Addr{Host: simnet.HostName(i), Port: 9000}}, nil)
				nodes = append(nodes, New(ctx, cfg))
			}
			k.Go(func() {
				for _, i := range []int{self, fast, slow} { // dead never serves
					if err := nodes[i].Start(); err != nil {
						t.Error(err)
					}
				}
			})
			k.RunFor(time.Second)
			n := nodes[self]
			row := CommonPrefix(n.self.ID, ids[fast])
			col := ids[fast].Digit(row)
			for _, offer := range tc.offers {
				k.Go(func() {
					for _, i := range offer {
						n.tableInsert(nodes[i].self)
					}
				})
				k.RunFor(time.Minute) // the probes settle before the next offer
			}
			if got := n.table[row][col]; got.Addr != nodes[fast].self.Addr {
				t.Fatalf("slot [%d][%d] holds %s, want the faster live node %s", row, col, got, nodes[fast].self)
			}
		})
	}
}
