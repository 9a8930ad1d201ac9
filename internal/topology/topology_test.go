package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestModelNetDelayClasses(t *testing.T) {
	m := NewModelNet(DefaultModelNet(1100))
	if m.NumHosts() != 1100 {
		t.Fatalf("hosts = %d", m.NumHosts())
	}
	// Find a same-stub pair and a different-stub pair.
	sameStub, diffStub := -1, -1
	for b := 1; b < m.NumHosts(); b++ {
		if m.hostStub[0] == m.hostStub[b] && sameStub < 0 {
			sameStub = b
		}
		if m.hostStub[0] != m.hostStub[b] && diffStub < 0 {
			diffStub = b
		}
	}
	if sameStub > 0 {
		if rtt := m.RTT(0, sameStub); rtt != 10*time.Millisecond {
			t.Errorf("same-domain RTT = %s, want 10ms", rtt)
		}
	}
	if diffStub > 0 {
		rtt := m.RTT(0, diffStub)
		// At least access + 2×(stub-transit) = 10+60 = 70ms.
		if rtt < 70*time.Millisecond {
			t.Errorf("cross-stub RTT = %s, want ≥ 70ms", rtt)
		}
	}
	if m.RTT(5, 5) != 0 {
		t.Errorf("self RTT nonzero")
	}
}

func TestModelNetSymmetryAndBounds(t *testing.T) {
	m := NewModelNet(DefaultModelNet(300))
	var max time.Duration
	for a := 0; a < 100; a++ {
		for b := a + 1; b < 100; b++ {
			ab, ba := m.RTT(a, b), m.RTT(b, a)
			if ab != ba {
				t.Fatalf("asymmetric RTT between %d and %d: %s vs %s", a, b, ab, ba)
			}
			if ab <= 0 {
				t.Fatalf("non-positive RTT between %d and %d", a, b)
			}
			if ab > max {
				max = ab
			}
		}
	}
	// The paper notes ModelNet delays are roughly twice PlanetLab's; the
	// diameter should stay well under a second.
	if max > time.Second {
		t.Fatalf("topology diameter %s too large", max)
	}
	if max < 100*time.Millisecond {
		t.Fatalf("topology diameter %s suspiciously small", max)
	}
}

func TestModelNetDeterministic(t *testing.T) {
	a := NewModelNet(DefaultModelNet(200))
	b := NewModelNet(DefaultModelNet(200))
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				t.Fatalf("non-deterministic generation at (%d,%d)", i, j)
			}
		}
	}
}

func TestModelNetTriangleish(t *testing.T) {
	// Delays derive from shortest paths, so the router part obeys the
	// triangle inequality; with access links the violation is bounded by
	// one access RTT.
	m := NewModelNet(DefaultModelNet(100))
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%100, int(b)%100, int(c)%100
		return m.RTT(x, z) <= m.RTT(x, y)+m.RTT(y, z)+m.accessRTT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanetLabFig3Calibration(t *testing.T) {
	p := NewPlanetLab(DefaultPlanetLab(450))
	const probes = 20000
	var delays []time.Duration
	for i := 0; i < probes; i++ {
		delays = append(delays, p.ProbeDelay(i%p.NumHosts(), 20<<10))
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	frac := func(limit time.Duration) float64 {
		n := sort.Search(len(delays), func(i int) bool { return delays[i] > limit })
		return float64(n) / float64(len(delays))
	}
	under250 := frac(250 * time.Millisecond)
	over1s := 1 - frac(time.Second)
	// Paper (Fig. 3): 17.10% within 250ms, over 45% need > 1 s.
	if math.Abs(under250-0.171) > 0.04 {
		t.Errorf("P(probe ≤ 250ms) = %.3f, want ≈ 0.171", under250)
	}
	if over1s < 0.40 || over1s > 0.52 {
		t.Errorf("P(probe > 1s) = %.3f, want ≈ 0.45", over1s)
	}
	if max := delays[len(delays)-1]; max > 12*time.Second {
		t.Errorf("max probe %s beyond Fig. 3 tail", max)
	}
}

func TestPlanetLabPairwiseRTT(t *testing.T) {
	p := NewPlanetLab(DefaultPlanetLab(400))
	var rtts []time.Duration
	for a := 0; a < 100; a++ {
		for b := a + 1; b < 100; b++ {
			oneway := p.Delay(a, b)
			if oneway != p.Delay(b, a) {
				t.Fatalf("asymmetric delay")
			}
			rtts = append(rtts, 2*oneway)
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	median := rtts[len(rtts)/2]
	if median < 40*time.Millisecond || median > 200*time.Millisecond {
		t.Fatalf("median pairwise RTT %s outside plausible PlanetLab range", median)
	}
}

func TestSlownessQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return slownessQuantile(a) <= slownessQuantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if q := slownessQuantile(-1); q != slownessQuantile(0) {
		t.Error("negative percentile not clamped")
	}
	if q := slownessQuantile(2); q > 11*time.Second {
		t.Error("overflow percentile not clamped")
	}
}

func TestMixedDeployment(t *testing.T) {
	pl := NewPlanetLab(DefaultPlanetLab(100))
	mn := NewModelNet(DefaultModelNet(100))
	mx := NewMixed(pl, mn, 100, 60*time.Millisecond)

	// Intra-side delays match the underlying models.
	if mx.Delay(3, 7) != pl.Delay(3, 7) {
		t.Error("A-side delay mismatch")
	}
	if mx.Delay(103, 107) != mn.Delay(3, 7) {
		t.Error("B-side delay mismatch")
	}
	// Cross-side delay includes the WAN hop.
	cross := mx.Delay(3, 103)
	if cross < 30*time.Millisecond {
		t.Errorf("cross delay %s too small", cross)
	}
	if mx.Delay(3, 103) != mx.Delay(103, 3) {
		t.Error("cross delay asymmetric")
	}
	// Bandwidth routed to the right side.
	if mx.UplinkBps(103) != mn.UplinkBps(3) {
		t.Error("B-side bandwidth mismatch")
	}
	if mx.UplinkBps(3) != pl.UplinkBps(3) {
		t.Error("A-side bandwidth mismatch")
	}
}

func TestProcDelayScalesWithSlowness(t *testing.T) {
	p := NewPlanetLab(DefaultPlanetLab(450))
	// Identify the fastest and slowest host by percentile.
	fast, slow := 0, 0
	for i := range p.slow {
		if p.slow[i] < p.slow[fast] {
			fast = i
		}
		if p.slow[i] > p.slow[slow] {
			slow = i
		}
	}
	avg := func(h int) time.Duration {
		var sum time.Duration
		for i := 0; i < 2000; i++ {
			sum += p.ProcDelay(h, 1024)
		}
		return sum / 2000
	}
	if af, as := avg(fast), avg(slow); af >= as {
		t.Fatalf("fast host proc delay %s ≥ slow host %s", af, as)
	}
}

// TestModelNetPlacement pins Assign's contract: whole stub domains per
// partition, host 0 on partition 0, host counts balanced to within the
// largest stub domain, and a bound that is exactly the smallest delay
// between hosts on different partitions — four times MinDelay on the
// paper's topology, which is what lengthens a sharded run's lookahead.
func TestModelNetPlacement(t *testing.T) {
	for _, hosts := range []int{300, 2048} {
		m := NewModelNet(DefaultModelNet(hosts))
		for _, parts := range []int{2, 4, 8} {
			place, cross := m.Assign(hosts, parts)
			if len(place) != hosts || place[0] != 0 {
				t.Fatalf("%d hosts, %d parts: %d placements, host 0 on partition %d", hosts, parts, len(place), place[0])
			}
			stubPart := map[int]int{}
			stubSize := map[int]int{}
			load := make([]int, parts)
			for h, p := range place {
				s := m.hostStub[h]
				if q, ok := stubPart[s]; ok && q != p {
					t.Fatalf("%d hosts, %d parts: stub %d spans partitions %d and %d", hosts, parts, s, q, p)
				}
				stubPart[s] = p
				stubSize[s]++
				load[p]++
			}
			largest := 0
			for _, n := range stubSize {
				largest = max(largest, n)
			}
			if lo, hi := slices.Min(load), slices.Max(load); hi-lo > largest {
				t.Errorf("%d hosts, %d parts: partition sizes %v differ by more than the largest stub (%d)", hosts, parts, load, largest)
			}
			if hosts == 2048 {
				if cross < 4*m.MinDelay() {
					t.Errorf("2048 hosts, %d parts: cross-partition bound %s < 4 × MinDelay %s", parts, cross, m.MinDelay())
				}
				continue
			}
			brute := time.Duration(math.MaxInt64)
			for a := range place {
				for b := range place {
					if place[a] != place[b] {
						brute = min(brute, m.Delay(a, b))
					}
				}
			}
			if cross != brute {
				t.Errorf("%d hosts, %d parts: bound %s, brute-force minimum %s", hosts, parts, cross, brute)
			}
		}
	}
}

// TestModelNetTableMatchesReference checks the stub table against an
// independent all-pairs computation — Floyd–Warshall over the router graph
// — on the paper's topology, other seeds and odd shapes: one transit
// domain, a handful of stubs, and small shortcut-heavy graphs in which most
// stubs are not leaves and some leaves hang off other stubs.
func TestModelNetTableMatchesReference(t *testing.T) {
	cfgs := []ModelNetConfig{DefaultModelNet(3000)}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := DefaultModelNet(500)
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	oneDomain := DefaultModelNet(200)
	oneDomain.TransitDomains, oneDomain.StubRouters = 1, 40
	fewStubs := DefaultModelNet(50)
	fewStubs.StubRouters = 3
	lone := DefaultModelNet(10)
	lone.TransitDomains, lone.TransitPerDom, lone.StubRouters = 1, 1, 2
	cfgs = append(cfgs, oneDomain, fewStubs, lone)
	for _, cfg := range cfgs {
		links, hostStub := generate(cfg)
		m := NewModelNet(cfg)
		if !slices.Equal(m.hostStub, hostStub) {
			t.Fatalf("%+v: host placement differs from the generator's", cfg)
		}
		checkStubTable(t, fmt.Sprintf("%+v", cfg), cfg.TransitDomains*cfg.TransitPerDom, cfg.StubRouters, links, m.stubDelay)
	}

	// The generator draws a shortcut for one stub in twenty, so the
	// shortcut-heavy graphs are drawn here: every stub links to a transit
	// router or to an earlier stub, and most gain extra stub-stub links.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const transit, stubs = 3, 24
		links := []link{{0, 1, 100}, {1, 2, 70}, {2, 0, 250}}
		for s := range stubs {
			r := int32(transit + s)
			if s > 0 && rng.Intn(4) == 0 {
				links = append(links, link{r, int32(transit + rng.Intn(s)), uint32(1 + rng.Intn(50))})
			} else {
				links = append(links, link{r, int32(rng.Intn(transit)), uint32(1 + rng.Intn(50))})
			}
			for range rng.Intn(3) {
				links = append(links, link{r, int32(transit + rng.Intn(stubs)), uint32(1 + rng.Intn(50))})
			}
		}
		deg := make([]int, transit+stubs)
		for _, l := range links {
			deg[l.a]++
			deg[l.b]++
		}
		leaves := 0
		for _, d := range deg[transit:] {
			if d == 1 {
				leaves++
			}
		}
		if leaves*2 >= stubs {
			t.Fatalf("shortcut-heavy seed %d: %d of %d stubs are leaves", seed, leaves, stubs)
		}
		checkStubTable(t, fmt.Sprintf("shortcut-heavy seed %d", seed), transit, stubs, links, stubTable(transit, stubs, links))
	}
}

// checkStubTable compares a lower-triangle stub table with Floyd–Warshall
// over the graph, and checks the reference is symmetric with a zero
// diagonal.
func checkStubTable(t *testing.T, name string, transit, stubs int, links []link, table []uint32) {
	t.Helper()
	n := transit + stubs
	d := make([][]uint64, n)
	for i := range d {
		d[i] = make([]uint64, n)
		for j := range d[i] {
			d[i][j] = math.MaxUint32
		}
		d[i][i] = 0
	}
	for _, l := range links {
		d[l.a][l.b] = min(d[l.a][l.b], uint64(l.w))
		d[l.b][l.a] = min(d[l.b][l.a], uint64(l.w))
	}
	for k := range n {
		for _, di := range d {
			dk, dik := d[k][:len(di)], di[k]
			for j := range di {
				di[j] = min(di[j], dik+dk[j])
			}
		}
	}
	if len(table) != stubs*(stubs+1)/2 {
		t.Fatalf("%s: table holds %d entries for %d stubs", name, len(table), stubs)
	}
	for a := range stubs {
		for b := range stubs {
			want := d[transit+a][transit+b]
			if want != d[transit+b][transit+a] || a == b && want != 0 {
				t.Fatalf("%s: reference %d µs from stub %d to %d, %d µs back", name, want, a, b, d[transit+b][transit+a])
			}
			if got := table[tri(a, b)]; uint64(got) != want {
				t.Fatalf("%s: stubs %d, %d: table %d µs, reference %d µs", name, a, b, got, want)
			}
		}
	}
}

// TestModelNetBuildAllocs bounds the build's allocations: the table is
// filled without an allocation per edge or per row.
func TestModelNetBuildAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { NewModelNet(DefaultModelNet(3000)) }); n > 1000 {
		t.Fatalf("NewModelNet(DefaultModelNet(3000)) makes %.0f allocations, want ≤ 1000", n)
	}
}

func BenchmarkModelNetBuild(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		NewModelNet(DefaultModelNet(3000))
	}
}
