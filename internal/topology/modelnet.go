// Package topology provides the link models used by the paper's testbeds:
// a ModelNet-style transit-stub topology, a PlanetLab model calibrated
// against the paper's measurements, and mixed deployments spanning both.
// All models implement simnet.LinkModel.
package topology

import (
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
	hostStub  []int    // host -> stub router index
	stubDelay []uint32 // stub↔stub RTT in µs (router part), a lower triangle indexed by tri
	accessRTT time.Duration
}

// NewModelNet generates a topology. Generation is deterministic in
// cfg.Seed.
func NewModelNet(cfg ModelNetConfig) *ModelNet {
	links, hostStub := generate(cfg)
	return &ModelNet{
		cfg:       cfg,
		hostStub:  hostStub,
		stubDelay: stubTable(cfg.TransitDomains*cfg.TransitPerDom, cfg.StubRouters, links),
		accessRTT: cfg.SameDomainRTT,
	}
}

// link is an undirected router-graph link with an RTT weight in
// microseconds.
type link struct {
	a, b int32
	w    uint32
}

// generate draws the router graph — transit routers first, then the stub
// routers — and each host's stub router, in one fixed draw order.
func generate(cfg ModelNetConfig) (links []link, hostStub []int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTransit := cfg.TransitDomains * cfg.TransitPerDom
	addLink := func(a, b int, rtt time.Duration) {
		links = append(links, link{int32(a), int32(b), uint32(rtt / time.Microsecond)})
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

	hostStub = make([]int, cfg.Hosts)
	for h := range hostStub {
		hostStub[h] = rng.Intn(cfg.StubRouters)
	}
	return links, hostStub
}

// tri indexes the stub pair {a, b} in a symmetric table stored as its
// lower triangle, row by row: hi(hi+1)/2 + lo, written order-free as
// hi(hi-1)/2 + a + b so that only the maximum is taken.
func tri(a, b int) int {
	hi := uint(max(a, b))
	return int(hi*(hi-1)/2 + uint(a) + uint(b))
}

// stubTable returns the shortest-path RTTs (µs) between the stub routers —
// routers transit.. of the graph — as a lower triangle. Dijkstra runs over
// a CSR adjacency with a binary heap of packed dist<<32|router entries,
// reusing its buffers across sources. A stub whose only link goes to
// router u with weight w reaches everything else through u, so its row is
// w plus u's, and one search from u fills the rows of every stub hanging
// off it: on the paper's topology 85 searches (50 transit routers, 35
// stubs with shortcuts) fill all 450 rows.
func stubTable(transit, stubs int, links []link) []uint32 {
	n := transit + stubs
	off, to, wt := make([]int32, n+2), make([]int32, 2*len(links)), make([]uint32, 2*len(links))
	for _, l := range links {
		off[l.a+2]++
		off[l.b+2]++
	}
	for r := 2; r < len(off); r++ {
		off[r] += off[r-1]
	}
	put := func(a, b int32, w uint32) { // off[a+1] fills a's links, then ends them
		to[off[a+1]], wt[off[a+1]] = b, w
		off[a+1]++
	}
	for _, l := range links {
		put(l.a, l.b, l.w)
		put(l.b, l.a, l.w)
	}
	// anchor returns the router whose distances give stub s's row, and
	// the weight to add to them.
	anchor := func(s int) (int32, uint32) {
		r := int32(transit + s)
		if e := off[r]; off[r+1]-e == 1 {
			return to[e], wt[e]
		}
		return r, 0
	}
	table, dist, searched := make([]uint32, stubs*(stubs+1)/2), make([]uint32, n), make([]bool, n)
	var pq []uint64
	for s := range stubs {
		src, _ := anchor(s)
		if searched[src] {
			continue
		}
		searched[src] = true
		for r := range dist {
			dist[r] = math.MaxUint32
		}
		dist[src] = 0
		for pq = append(pq[:0], uint64(src)); len(pq) > 0; {
			top, last := pq[0], len(pq)-1
			pq[0], pq = pq[last], pq[:last]
			for i, c := 0, 1; c < len(pq); i, c = c, 2*c+1 { // sift down
				if c+1 < len(pq) && pq[c+1] < pq[c] {
					c++
				}
				if pq[i] <= pq[c] {
					break
				}
				pq[i], pq[c] = pq[c], pq[i]
			}
			d, r := uint32(top>>32), uint32(top)
			if d > dist[r] {
				continue // a stale entry: r was settled closer
			}
			for e := off[r]; e < off[r+1]; e++ {
				if v, nd := to[e], d+wt[e]; nd < dist[v] {
					dist[v] = nd
					pq = append(pq, uint64(nd)<<32|uint64(v))
					for i := len(pq) - 1; i > 0 && pq[(i-1)/2] > pq[i]; i = (i - 1) / 2 { // sift up
						pq[i], pq[(i-1)/2] = pq[(i-1)/2], pq[i]
					}
				}
			}
		}
		for t := s; t < stubs; t++ {
			if u, w := anchor(t); u == src {
				row := table[tri(t, 0) : tri(t, t)+1]
				for q := range row {
					row[q] = w + dist[transit+q]
				}
				row[t] = 0
			}
		}
	}
	return table
}

// NumHosts returns the emulated host population.
func (m *ModelNet) NumHosts() int { return m.cfg.Hosts }

// RTT returns the emulated round-trip time between two hosts.
func (m *ModelNet) RTT(a, b int) time.Duration {
	if a == b {
		return 0
	}
	sa, sb := m.hostStub[a], m.hostStub[b]
	if sa == sb {
		return m.accessRTT
	}
	return m.accessRTT + time.Duration(m.stubDelay[tri(sa, sb)])*time.Microsecond
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
	size := make([]int, m.cfg.StubRouters)
	for _, s := range stubs {
		size[s]++
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
	// The smallest router delay between occupied stubs on different
	// partitions, read off the triangle (a > b, so never one stub twice).
	cross := uint32(math.MaxUint32)
	for a := range size {
		if size[a] == 0 {
			continue
		}
		for b, d := range m.stubDelay[tri(a, 0):tri(a, a)] {
			if size[b] > 0 && bin[a] != bin[b] {
				cross = min(cross, d)
			}
		}
	}
	if cross == math.MaxUint32 {
		return place, m.MinDelay() // one partition holds every host: nothing crosses
	}
	return place, (m.accessRTT + time.Duration(cross)*time.Microsecond) / 2
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
