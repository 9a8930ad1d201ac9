package chord

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// testRing builds n started Chord nodes over a symmetric network.
type testRing struct {
	k     *sim.Kernel
	nw    *simnet.Network
	rt    *core.SimRuntime
	nodes []*Node
	ctxs  []*core.AppContext
}

func newTestRing(t *testing.T, n int, cfg Config, seed int64) *testRing {
	t.Helper()
	k := sim.NewKernel()
	tr := &testRing{
		k:  k,
		nw: simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, n, seed),
		rt: core.NewSimRuntime(k, seed),
	}
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(1 << 20) // unique ids in a 2^24 space
	for i := 0; i < n; i++ {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 8000}
		ctx := core.NewAppContext(tr.rt, tr.nw.Node(i), core.JobInfo{Me: addr, Position: i + 1}, nil)
		c := cfg
		id := uint64(ids[i])
		c.ID = &id
		node, err := New(ctx, c)
		if err != nil {
			t.Fatalf("new node %d: %v", i, err)
		}
		tr.nodes = append(tr.nodes, node)
		tr.ctxs = append(tr.ctxs, ctx)
	}
	return tr
}

func (tr *testRing) startAll(t *testing.T) {
	t.Helper()
	tr.k.Go(func() {
		for _, n := range tr.nodes {
			if err := n.Start(); err != nil {
				t.Errorf("start %s: %v", n.Self(), err)
			}
		}
	})
	tr.k.Run()
}

func TestProtocolJoinAndStabilize(t *testing.T) {
	tr := newTestRing(t, 8, DefaultConfig(), 1)
	tr.startAll(t)
	// Staggered joins through the protocol (1s apart, as in §5.2's
	// deployment descriptor), then let stabilization converge.
	seed := tr.nodes[0].Self().Addr
	for i := 1; i < len(tr.nodes); i++ {
		i := i
		tr.k.GoAfter(time.Duration(i)*time.Second, func() {
			if err := tr.nodes[i].Join(seed); err != nil {
				t.Errorf("join %d: %v", i, err)
			}
		})
	}
	tr.k.Go(func() {
		for _, n := range tr.nodes {
			n.StartMaintenance()
		}
	})
	tr.k.RunFor(3 * time.Minute)

	if err := CheckRing(tr.nodes); err != nil {
		t.Fatalf("ring not converged: %v", err)
	}
	// Lookups from every node resolve to the true owner. Maintenance
	// periodics keep the event queue alive, so drive the clock by a
	// bounded amount rather than draining it.
	done := false
	tr.k.Go(func() {
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 40; i++ {
			key := uint64(rng.Intn(1 << 24))
			src := tr.nodes[rng.Intn(len(tr.nodes))]
			res, err := src.Lookup(key)
			if err != nil {
				t.Errorf("lookup %d: %v", key, err)
				continue
			}
			if want := OwnerOf(tr.nodes, key); res.Node.Addr != want.Addr {
				t.Errorf("lookup %d = %s, want %s", key, res.Node, want)
			}
		}
		done = true
	})
	tr.k.RunFor(10 * time.Minute)
	if !done {
		t.Fatal("lookups did not finish in simulated time")
	}
}

func TestStaticBuildLookups(t *testing.T) {
	tr := newTestRing(t, 64, DefaultConfig(), 2)
	tr.startAll(t)
	if err := BuildRing(tr.nodes, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckRing(tr.nodes); err != nil {
		t.Fatal(err)
	}
	totalHops := 0
	lookups := 0
	tr.k.Go(func() {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			key := uint64(rng.Intn(1 << 24))
			src := tr.nodes[rng.Intn(len(tr.nodes))]
			res, err := src.Lookup(key)
			if err != nil {
				t.Errorf("lookup: %v", err)
				continue
			}
			if want := OwnerOf(tr.nodes, key); res.Node.Addr != want.Addr {
				t.Errorf("lookup %d = %s, want %s", key, res.Node, want)
			}
			totalHops += res.Hops
			lookups++
		}
	})
	tr.k.Run()
	// Average route length should be ≈ ½·log2(64) = 3, certainly < 6.
	mean := float64(totalHops) / float64(lookups)
	if mean > 6 || mean < 1 {
		t.Fatalf("mean hops = %.2f, want ≈3", mean)
	}
}

func TestFaultToleranceSurvivesFailures(t *testing.T) {
	cfg := FaultTolerantConfig()
	cfg.RPCTimeout = 5 * time.Second
	tr := newTestRing(t, 24, cfg, 4)
	tr.startAll(t)
	if err := BuildRing(tr.nodes, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	tr.k.Go(func() {
		for _, n := range tr.nodes {
			n.StartMaintenance()
		}
	})
	// Kill a quarter of the nodes.
	dead := map[int]bool{3: true, 7: true, 11: true, 19: true, 20: true, 21: true}
	tr.k.GoAfter(30*time.Second, func() {
		for i := range dead {
			tr.nw.Host(i).SetDown(true)
			tr.ctxs[i].Kill()
		}
	})
	tr.k.RunFor(5 * time.Minute)

	var live []*Node
	for i, n := range tr.nodes {
		if !dead[i] {
			live = append(live, n)
		}
	}
	ok, fail := 0, 0
	tr.k.Go(func() {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 60; i++ {
			src := live[rng.Intn(len(live))]
			key := uint64(rng.Intn(1 << 24))
			res, err := src.Lookup(key)
			if err != nil {
				fail++
				continue
			}
			if want := OwnerOf(live, key); res.Node.Addr == want.Addr {
				ok++
			} else {
				fail++
			}
		}
	})
	tr.k.RunFor(10 * time.Minute)
	if ok < 55 {
		t.Fatalf("post-failure lookups: %d ok, %d failed; ring did not repair", ok, fail)
	}
}

func TestBaseLookupFailsWhenRouteDead(t *testing.T) {
	// Without fault tolerance, a dead next hop fails the lookup.
	cfg := DefaultConfig()
	cfg.RPCTimeout = 2 * time.Second
	tr := newTestRing(t, 8, cfg, 6)
	tr.startAll(t)
	if err := BuildRing(tr.nodes, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	var failed error
	tr.k.Go(func() {
		// Kill node 0's successor, then look up a key the route must
		// traverse it for (just past its identifier).
		succ := tr.nodes[0].Successor()
		for i, n := range tr.nodes {
			if n.Self().Addr == succ.Addr {
				tr.nw.Host(i).SetDown(true)
			}
		}
		_, failed = tr.nodes[0].Lookup(succ.ID + 1)
	})
	tr.k.Run()
	if !errors.Is(failed, ErrLookupFailed) {
		t.Fatalf("err = %v, want ErrLookupFailed", failed)
	}
}

func TestLatencyAwareBuildImprovesDelay(t *testing.T) {
	// Two identical rings; one with proximity fingers. Under a link model
	// with very asymmetric host distances, latency-aware fingers must cut
	// mean lookup delay.
	run := func(oracle RTTOracle) time.Duration {
		k := sim.NewKernel()
		model := clusteredModel{}
		nw := simnet.New(k, model, 64, 7)
		rt := core.NewSimRuntime(k, 7)
		rng := rand.New(rand.NewSource(7))
		ids := rng.Perm(1 << 20)
		var nodes []*Node
		for i := 0; i < 64; i++ {
			addr := transport.Addr{Host: simnet.HostName(i), Port: 8000}
			ctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: addr}, nil)
			cfg := DefaultConfig()
			id := uint64(ids[i])
			cfg.ID = &id
			n, _ := New(ctx, cfg)
			nodes = append(nodes, n)
		}
		k.Go(func() {
			for _, n := range nodes {
				n.Start()
			}
		})
		k.Run()
		if err := BuildRing(nodes, BuildOptions{Oracle: oracle}); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		count := 0
		k.Go(func() {
			lrng := rand.New(rand.NewSource(8))
			for i := 0; i < 150; i++ {
				src := nodes[lrng.Intn(len(nodes))]
				res, err := src.Lookup(uint64(lrng.Intn(1 << 24)))
				if err != nil {
					continue
				}
				total += res.RTT
				count++
			}
		})
		k.Run()
		return total / time.Duration(count)
	}

	plain := run(nil)
	aware := run(func(a, b transport.Addr) time.Duration {
		ia, _ := simnet.HostID(a.Host)
		ib, _ := simnet.HostID(b.Host)
		return 2 * clusteredModel{}.Delay(ia, ib)
	})
	if aware >= plain {
		t.Fatalf("latency-aware mean %s not better than plain %s", aware, plain)
	}
}

// clusteredModel puts hosts in two sites: 5ms RTT inside a site, 200ms
// across, a setting where proximity routing matters.
type clusteredModel struct{}

func (clusteredModel) Delay(a, b int) time.Duration {
	if a%2 == b%2 {
		return 2500 * time.Microsecond
	}
	return 100 * time.Millisecond
}
func (clusteredModel) Loss(a, b int) float64      { return 0 }
func (clusteredModel) UplinkBps(host int) float64 { return 0 }
func (clusteredModel) DownlinkBps(h int) float64  { return 0 }

func TestDynamicFixFingersConverges(t *testing.T) {
	tr := newTestRing(t, 12, DefaultConfig(), 9)
	tr.startAll(t)
	seed := tr.nodes[0].Self().Addr
	for i := 1; i < len(tr.nodes); i++ {
		i := i
		tr.k.GoAfter(time.Duration(i)*time.Second, func() {
			tr.nodes[i].Join(seed)
		})
	}
	tr.k.Go(func() {
		for _, n := range tr.nodes {
			n.StartMaintenance()
		}
	})
	// Enough rounds for fix_fingers to sweep all 24 fingers.
	tr.k.RunFor(5 * time.Minute)
	// Every node's fingers must point at the true successor of their
	// start (converged finger tables).
	for _, n := range tr.nodes {
		for f := uint(2); f <= n.cfg.Bits; f += 7 {
			start := n.space.FingerStart(n.Self().ID, f)
			want := OwnerOf(tr.nodes, start)
			if got := n.ref(n.finger[f]); !got.IsZero() && got.Addr != want.Addr {
				t.Fatalf("node %s finger %d = %s, want %s", n.Self(), f, got, want)
			}
		}
	}
}

// TestFingerStorage: a node built without Config.Shared holds one plain
// finger array — not a 256-block slab chunk to serve it — while nodes
// given a Shared still carve theirs from its slab.
func TestFingerStorage(t *testing.T) {
	const blockBytes = (32 + 1) * 4 // 132 B, against the 34 KB of a slab chunk
	private := newTestRing(t, 3, Config{Bits: 32}, 1)
	for _, n := range private.nodes {
		if n.shared.slab != nil {
			t.Fatalf("%s: private Shared allocated a slab (%d bytes)", n.Self(), n.shared.slab.Bytes())
		}
		if b := cap(n.finger) * 4; b != blockBytes {
			t.Fatalf("%s: finger array retains %d bytes, want %d", n.Self(), b, blockBytes)
		}
	}
	shared := NewShared(nil)
	before := shared.Bytes()
	newTestRing(t, 3, Config{Bits: 32, Shared: shared}, 1)
	if live := shared.slab.Live(); live != 3 {
		t.Fatalf("shared slab has %d live blocks, want 3", live)
	}
	if got := shared.slab.Bytes(); got != 256*blockBytes || shared.Bytes() < before+got {
		t.Fatalf("shared slab reports %d bytes (Shared %d), want one %d-byte chunk", got, shared.Bytes(), 256*blockBytes)
	}
}
