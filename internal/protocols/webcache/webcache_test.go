package webcache

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
	"github.com/splaykit/splay/internal/workload"
)

func TestLRUBasics(t *testing.T) {
	now := time.Unix(0, 0)
	c := newLRUCache(2, time.Minute)
	c.put("a", now)
	c.put("b", now)
	if !c.get("a", now) || !c.get("b", now) {
		t.Fatal("fresh entries missing")
	}
	c.put("c", now) // evicts LRU = "a" (b and a both touched; a touched first)
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	if c.get("a", now) {
		t.Fatal("a should have been evicted (LRU)")
	}
	if !c.get("b", now) || !c.get("c", now) {
		t.Fatal("b/c should remain")
	}
}

func TestLRUTTL(t *testing.T) {
	now := time.Unix(0, 0)
	c := newLRUCache(10, time.Minute)
	c.put("a", now)
	if !c.get("a", now.Add(59*time.Second)) {
		t.Fatal("entry expired early")
	}
	if c.get("a", now.Add(61*time.Second)) {
		t.Fatal("stale entry served")
	}
	if c.len() != 0 {
		t.Fatal("stale entry not removed")
	}
}

func TestLRURefreshOnPut(t *testing.T) {
	now := time.Unix(0, 0)
	c := newLRUCache(10, time.Minute)
	c.put("a", now)
	c.put("a", now.Add(50*time.Second))
	if !c.get("a", now.Add(100*time.Second)) {
		t.Fatal("re-put did not refresh TTL")
	}
	if c.len() != 1 {
		t.Fatalf("duplicate entries: %d", c.len())
	}
}

type cacheNet struct {
	k      *sim.Kernel
	caches []*Cache
}

func newCacheNet(t *testing.T, n int) *cacheNet {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, n, 1)
	rt := core.NewSimRuntime(k, 1)
	var pnodes []*pastry.Node
	var caches []*Cache
	for i := 0; i < n; i++ {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 9000}
		ctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: addr}, nil)
		p := pastry.New(ctx, pastry.DefaultConfig())
		pnodes = append(pnodes, p)
		caches = append(caches, New(ctx, p))
	}
	k.Go(func() {
		for i := range pnodes {
			if err := pnodes[i].Start(); err != nil {
				t.Errorf("pastry start: %v", err)
			}
			if err := caches[i].Start(); err != nil {
				t.Errorf("cache start: %v", err)
			}
		}
	})
	k.Run()
	if err := pastry.BuildNetwork(pnodes, 1); err != nil {
		t.Fatal(err)
	}
	return &cacheNet{k: k, caches: caches}
}

func TestMissThenHit(t *testing.T) {
	cn := newCacheNet(t, 16)
	var first, second GetResult
	cn.k.Go(func() {
		var err error
		first, err = cn.caches[3].Get("http://origin.example/a")
		if err != nil {
			t.Errorf("get 1: %v", err)
		}
		second, err = cn.caches[7].Get("http://origin.example/a")
		if err != nil {
			t.Errorf("get 2: %v", err)
		}
	})
	cn.k.Run()
	if first.Hit {
		t.Fatal("first access was a hit")
	}
	if !second.Hit {
		t.Fatal("second access (other client) missed: home-store not shared")
	}
	if first.Delay < time.Second {
		t.Fatalf("miss delay %s below origin delay", first.Delay)
	}
	if second.Delay >= first.Delay {
		t.Fatalf("hit delay %s not faster than miss %s", second.Delay, first.Delay)
	}
}

func TestTTLForcesRefetch(t *testing.T) {
	cn := newCacheNet(t, 8)
	var again GetResult
	cn.k.Go(func() {
		cn.caches[0].Get("http://origin.example/x") //nolint:errcheck
		cn.k.Sleep(3 * time.Minute)                 // beyond the 120s TTL
		var err error
		again, err = cn.caches[1].Get("http://origin.example/x")
		if err != nil {
			t.Errorf("get: %v", err)
		}
	})
	cn.k.Run()
	if again.Hit {
		t.Fatal("stale object served after TTL")
	}
}

func TestSteadyStateHitRatio(t *testing.T) {
	cn := newCacheNet(t, 16)
	gen, err := workload.NewWebRequests(workload.WebConfig{
		URLs: 2000, ZipfS: 1.22, RatePerSec: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	cn.k.Go(func() {
		prev := time.Duration(0)
		for i := 0; i < 3000; i++ {
			at, url := gen.Next()
			cn.k.Sleep(at - prev)
			prev = at
			res, err := cn.caches[i%len(cn.caches)].Get(url)
			if err != nil {
				continue
			}
			total++
			if res.Hit {
				hits++
			}
		}
	})
	cn.k.Run()
	ratio := float64(hits) / float64(total)
	// 16 nodes × 100 entries vs 2000 Zipf URLs: a healthy but imperfect
	// hit ratio, the §5.7 regime.
	if ratio < 0.4 || ratio > 0.98 {
		t.Fatalf("hit ratio = %.3f, outside plausible band", ratio)
	}
	if total < 2900 {
		t.Fatalf("only %d/3000 requests succeeded", total)
	}
}
