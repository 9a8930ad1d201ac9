// Package topology provides the link models used by the paper's testbeds:
// a ModelNet-style transit-stub topology, a PlanetLab model calibrated
// against the paper's measurements, and mixed deployments spanning both.
// All models implement simnet.LinkModel.
package topology

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"time"
)

// ModelNetConfig parameterizes the transit-stub generator. The zero value
// is not useful; DefaultModelNet reproduces the paper's setup.
type ModelNetConfig struct {
	Hosts          int           // emulated end hosts
	TransitDomains int           // number of transit domains
	TransitPerDom  int           // routers per transit domain
	StubRouters    int           // number of stub domains/routers
	SameDomainRTT  time.Duration // host↔host within one stub domain
	StubTransitRTT time.Duration // stub↔transit and stub↔stub links
	TransitRTT     time.Duration // transit↔transit (long range) links
	LinkBps        float64       // per-host access bandwidth, bytes/sec
	Seed           int64
}

// DefaultModelNet returns the paper's configuration: 1,100 hosts on a
// 500-node transit-stub topology, 10 Mbps links, 10/30/100 ms RTTs
// (§5, experimental setup).
func DefaultModelNet(hosts int) ModelNetConfig {
	if hosts <= 0 {
		hosts = 1100
	}
	return ModelNetConfig{
		Hosts:          hosts,
		TransitDomains: 10,
		TransitPerDom:  5,
		StubRouters:    450, // 450 stubs + 50 transit = 500-node topology
		SameDomainRTT:  10 * time.Millisecond,
		StubTransitRTT: 30 * time.Millisecond,
		TransitRTT:     100 * time.Millisecond,
		LinkBps:        10e6 / 8, // 10 Mbps
		Seed:           2009,
	}
}

// ModelNet is a generated transit-stub topology with an all-pairs delay
// table between stub routers. It implements simnet.LinkModel.
type ModelNet struct {
	cfg       ModelNetConfig
	hostStub  []int      // host -> stub router index
	stubDelay [][]uint32 // stub -> stub RTT in microseconds (router part)
	accessRTT time.Duration
}

// NewModelNet generates a topology. Generation is deterministic in
// cfg.Seed.
func NewModelNet(cfg ModelNetConfig) *ModelNet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTransit := cfg.TransitDomains * cfg.TransitPerDom
	nRouters := nTransit + cfg.StubRouters

	adj := make([][]edge, nRouters)
	addLink := func(a, b int, rtt time.Duration) {
		w := uint32(rtt / time.Microsecond)
		adj[a] = append(adj[a], edge{b, w})
		adj[b] = append(adj[b], edge{a, w})
	}

	// Transit mesh: full mesh inside a domain at the same-domain RTT;
	// a ring plus random chords across domains at the long-range RTT.
	domainRouter := func(dom, i int) int { return dom*cfg.TransitPerDom + i }
	for dom := 0; dom < cfg.TransitDomains; dom++ {
		for i := 0; i < cfg.TransitPerDom; i++ {
			for j := i + 1; j < cfg.TransitPerDom; j++ {
				addLink(domainRouter(dom, i), domainRouter(dom, j), cfg.SameDomainRTT)
			}
		}
	}
	for dom := 0; dom < cfg.TransitDomains; dom++ {
		next := (dom + 1) % cfg.TransitDomains
		addLink(domainRouter(dom, rng.Intn(cfg.TransitPerDom)),
			domainRouter(next, rng.Intn(cfg.TransitPerDom)), cfg.TransitRTT)
		// One random chord per domain for path diversity.
		other := rng.Intn(cfg.TransitDomains)
		if other != dom {
			addLink(domainRouter(dom, rng.Intn(cfg.TransitPerDom)),
				domainRouter(other, rng.Intn(cfg.TransitPerDom)), cfg.TransitRTT)
		}
	}
	// Stub routers: each hangs off one transit router; a few stub-stub
	// shortcut links.
	for s := 0; s < cfg.StubRouters; s++ {
		stub := nTransit + s
		addLink(stub, rng.Intn(nTransit), cfg.StubTransitRTT)
		if rng.Float64() < 0.05 && s > 0 {
			addLink(stub, nTransit+rng.Intn(s), cfg.StubTransitRTT)
		}
	}

	// All-pairs stub↔stub delays via Dijkstra from every stub router.
	stubDelay := make([][]uint32, cfg.StubRouters)
	for s := 0; s < cfg.StubRouters; s++ {
		dist := dijkstra(adj, nTransit+s)
		row := make([]uint32, cfg.StubRouters)
		for q := 0; q < cfg.StubRouters; q++ {
			row[q] = dist[nTransit+q]
		}
		stubDelay[s] = row
	}

	hostStub := make([]int, cfg.Hosts)
	for h := range hostStub {
		hostStub[h] = rng.Intn(cfg.StubRouters)
	}
	return &ModelNet{
		cfg:       cfg,
		hostStub:  hostStub,
		stubDelay: stubDelay,
		accessRTT: cfg.SameDomainRTT,
	}
}

// edge is a router-graph link with an RTT weight in microseconds.
type edge struct {
	to int
	w  uint32
}

// dijkstra returns shortest-path RTTs (µs) from src over the router graph.
func dijkstra(adj [][]edge, src int) []uint32 {
	const inf = ^uint32(0)
	dist := make([]uint32, len(adj))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{e.to, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	d    uint32
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() (it any) {
	old := *h
	n := len(old)
	it = old[n-1]
	*h = old[:n-1]
	return
}

// NumHosts returns the emulated host population.
func (m *ModelNet) NumHosts() int { return m.cfg.Hosts }

// Config returns the generator configuration.
func (m *ModelNet) Config() ModelNetConfig { return m.cfg }

// RTT returns the emulated round-trip time between two hosts.
func (m *ModelNet) RTT(a, b int) time.Duration {
	if a == b {
		return 0
	}
	sa, sb := m.hostStub[a], m.hostStub[b]
	if sa == sb {
		return m.accessRTT
	}
	router := time.Duration(m.stubDelay[sa][sb]) * time.Microsecond
	return m.accessRTT + router
}

// Delay implements simnet.LinkModel (one-way delay).
func (m *ModelNet) Delay(a, b int) time.Duration { return m.RTT(a, b) / 2 }

// MinDelay implements simnet.MinDelayModel: the smallest one-way delay
// between distinct hosts is half the intra-domain RTT (self-delay is zero,
// but a host never crosses a kernel partition to reach itself).
func (m *ModelNet) MinDelay() time.Duration { return m.accessRTT / 2 }

// Assign implements simnet.Partitioner: partitions follow stub domains, so
// every path between two of them leaves a stub domain over at least one
// StubTransitRTT link, and the returned bound is at least
// (SameDomainRTT+StubTransitRTT)/2 — four times MinDelay on the paper's
// topology. Whole stub domains are binned largest first, each onto the
// partition holding the fewest hosts so far (ties to the lowest index), and
// the partitions are then numbered in order of their first host, so host 0
// is on partition 0.
func (m *ModelNet) Assign(hosts, parts int) ([]int, time.Duration) {
	stubs := m.hostStub[:hosts]
	size := make([]int, len(m.stubDelay))
	first := make([]int, len(size)) // a host of each stub domain
	for h := len(stubs) - 1; h >= 0; h-- {
		size[stubs[h]]++
		first[stubs[h]] = h
	}
	order := make([]int, len(size))
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })
	load, bin := make([]int, parts), make([]int, len(size))
	for _, s := range order {
		p := 0
		for q := range load {
			if load[q] < load[p] {
				p = q
			}
		}
		bin[s], load[p] = p, load[p]+size[s]
	}
	label := make([]int, parts)
	for i := range label {
		label[i] = -1
	}
	place, next := make([]int, hosts), 0
	for h, s := range stubs {
		if label[bin[s]] < 0 {
			label[bin[s]], next = next, next+1
		}
		place[h] = label[bin[s]]
	}
	cross := time.Duration(math.MaxInt64)
	for a := range size {
		for b := range size {
			if size[a] > 0 && size[b] > 0 && bin[a] != bin[b] {
				cross = min(cross, m.Delay(first[a], first[b]))
			}
		}
	}
	if cross == math.MaxInt64 {
		cross = m.MinDelay() // one partition holds every host: nothing crosses
	}
	return place, cross
}

// Loss implements simnet.LinkModel; ModelNet links are lossless here.
func (m *ModelNet) Loss(a, b int) float64 { return 0 }

// UplinkBps implements simnet.LinkModel.
func (m *ModelNet) UplinkBps(host int) float64 { return m.cfg.LinkBps }

// DownlinkBps implements simnet.LinkModel.
func (m *ModelNet) DownlinkBps(host int) float64 { return m.cfg.LinkBps }

// EdgeDelay reports the typical one-way delay from a host to the transit
// core, used to compose mixed deployments.
func (m *ModelNet) EdgeDelay(host int) time.Duration {
	return (m.accessRTT + m.cfg.StubTransitRTT) / 2
}
