// Package hostmodel models physical testbed machines hosting many
// application instances: memory footprints, garbage-collection pressure,
// CPU queueing and swap. It reproduces the runtime-scalability comparisons
// of §5.3 (Figs. 7 and 8), where the quantity under test is not protocol
// logic but how a hosting runtime (SPLAY's daemons versus FreePastry's
// JVMs) degrades as instances pile onto a machine.
//
// The model plugs into the simulated network as a receiver-side processing
// delay (simnet.Network.SetProcDelay): each delivered message pays a
// service time on its physical host's CPU queue. Service time grows with
// memory pressure (GC) and explodes when the host starts swapping, which
// yields the published inflection points.
package hostmodel

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind selects the hosting runtime being modeled.
type Kind int

const (
	// Splay models instances hosted by a splayd: the paper measures a
	// memory footprint under 1.5 MB per instance (Fig. 8).
	Splay Kind = iota
	// JVM models FreePastry under the authors' recommended setup: three
	// JVMs per host, nodes sharing each JVM's footprint (§5.3).
	JVM
)

func (k Kind) String() string {
	if k == Splay {
		return "splay"
	}
	return "jvm"
}

// The physical characteristics reproduce §5.3's cluster (2 GB RAM, dual
// cores) and the published breakpoints: FreePastry swaps at 1,980 nodes
// over 11 hosts (180/host) and SPLAY at 1,263 instances on one host.
const (
	memBytes = 2 << 30 // physical memory per host: 2 GB

	// SPLAY footprints: the daemon plus per-instance state. Daemon +
	// libraries + OS share ≈154 MB; 1.5 MB per instance (Fig. 8) puts
	// the swap onset at exactly 1,263 instances.
	splayDaemonBase  = 154 << 20
	splayPerInstance = 1536 << 10
	// JVM footprints: per-JVM base plus per-node heap. Three 150 MB JVMs
	// plus ≈8.9 MB per node swap at 180 nodes/host: 11 hosts × 180 = the
	// paper's 1,980-node wall.
	jvmBase        = 150 << 20
	jvmsPerHost    = 3
	jvmPerInstance = 9100 << 10

	// Per-message CPU service time on an idle host.
	splayMsgCost = 100 * time.Microsecond
	jvmMsgCost   = 400 * time.Microsecond

	// swapPenalty multiplies service time once resident memory exceeds
	// physical memory.
	swapPenalty = 60

	// gcPauseProb is the per-message probability that a JVM-hosted
	// receiver is interrupted by a collector pause; gcPauseMean is the
	// pause's mean duration on an unpressured heap (it scales with the
	// GC factor). SPLAY-hosted instances have no such pauses.
	gcPauseProb = 0.25
	gcPauseMean = 60 * time.Millisecond

	// seed drives the deterministic pause sampling.
	seed = 7
)

// hostState is one physical machine.
type hostState struct {
	kind      Kind
	instances int

	cpuFree time.Time

	// Load accounting over a sliding one-minute window, approximating
	// the "average number of runnable processes" reported by Fig. 8.
	winStart time.Time
	winBusy  time.Duration
	load     float64
}

// Cluster is a set of modeled machines plus the mapping from emulated
// overlay nodes (simnet hosts) to the physical machines running them.
type Cluster struct {
	hosts []*hostState
	owner []int // overlay node -> physical host
	rng   *rand.Rand
}

// NewCluster returns an empty cluster of the given number of machines.
func NewCluster(hosts int) *Cluster {
	if hosts <= 0 {
		panic("hostmodel: no hosts")
	}
	c := &Cluster{
		hosts: make([]*hostState, hosts),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := range c.hosts {
		c.hosts[i] = &hostState{}
	}
	return c
}

// AssignInstances places n overlay nodes round-robin across the physical
// hosts using the given runtime kind, replacing any previous placement.
func (c *Cluster) AssignInstances(n int, kind Kind) {
	c.owner = make([]int, n)
	for _, h := range c.hosts {
		h.kind = kind
		h.instances = 0
	}
	for i := 0; i < n; i++ {
		phys := i % len(c.hosts)
		c.owner[i] = phys
		c.hosts[phys].instances++
	}
}

// MemUsed returns the resident bytes on physical host i.
func (c *Cluster) MemUsed(i int) int64 {
	h := c.hosts[i]
	switch h.kind {
	case JVM:
		jvms := min(h.instances, jvmsPerHost)
		return int64(jvms)*jvmBase + int64(h.instances)*jvmPerInstance
	default:
		return splayDaemonBase + int64(h.instances)*splayPerInstance
	}
}

// Swapping reports whether host i has exceeded physical memory.
func (c *Cluster) Swapping(i int) bool { return c.MemUsed(i) > memBytes }

// MemPerInstance returns the apparent per-instance footprint on host i,
// the quantity Fig. 8 plots.
func (c *Cluster) MemPerInstance(i int) int64 {
	h := c.hosts[i]
	if h.instances == 0 {
		return 0
	}
	return c.MemUsed(i) / int64(h.instances)
}

// Load returns host i's most recent one-minute load figure.
func (c *Cluster) Load(i int) float64 { return c.hosts[i].load }

// gcFactor models collector pressure: service time inflates as resident
// memory approaches physical memory, and is additionally multiplied by
// swapPenalty beyond it. This produces FreePastry's exponential delay
// growth past ~145 nodes/host and the hard wall at the swap point.
func (c *Cluster) gcFactor(i int) float64 {
	used := float64(c.MemUsed(i))
	capacity := float64(memBytes)
	ratio := used / capacity
	if ratio <= 0.6 {
		return 1
	}
	if ratio >= 1 {
		over := ratio - 1
		return swapPenalty * (1 + 10*over)
	}
	// 0.6 → 1×, 0.95 → ~8×, approaching the swap wall smoothly.
	return 1 / (1 - (ratio-0.6)/0.42)
}

// ProcDelay charges one delivered message of the given size against the
// overlay node's physical host and returns the induced latency (service
// plus CPU queueing). It is shaped to plug into
// simnet.Network.SetProcDelay; now must be the kernel's current time, so
// bind it via Hook.
func (c *Cluster) ProcDelay(now time.Time, node int, size int) time.Duration {
	if node < 0 || node >= len(c.owner) {
		return 0
	}
	h := c.hosts[c.owner[node]]
	base := splayMsgCost
	if h.kind == JVM {
		base = jvmMsgCost
	}
	// Larger payloads cost proportionally more to deserialize.
	service := base + time.Duration(size)*time.Nanosecond/2
	factor := c.gcFactor(c.owner[node])
	service = time.Duration(float64(service) * factor)
	// JVM collector pauses: occasional stop-the-world interruptions whose
	// length grows with heap pressure. This, not steady per-message cost,
	// is what separates the Fig. 7(a) delay distributions.
	if h.kind == JVM && c.rng.Float64() < gcPauseProb {
		service += time.Duration(c.rng.ExpFloat64() * float64(gcPauseMean) * factor)
	}

	start := now
	if start.Before(h.cpuFree) {
		start = h.cpuFree
	}
	h.cpuFree = start.Add(service)

	// Sliding-window load accounting.
	if h.winStart.IsZero() {
		h.winStart = now
	}
	h.winBusy += service
	if w := now.Sub(h.winStart); w >= time.Minute {
		h.load = float64(h.winBusy) / float64(w)
		h.winStart, h.winBusy = now, 0
	}
	return h.cpuFree.Sub(now)
}

// Hook adapts the cluster to simnet's processing-delay signature using
// the supplied clock.
func (c *Cluster) Hook(now func() time.Time) func(node, size int) time.Duration {
	return func(node, size int) time.Duration {
		return c.ProcDelay(now(), node, size)
	}
}

// SwapOnset returns the smallest instance count at which a host of the
// given kind starts swapping, the analytical version of the published
// breakpoints (1,263 SPLAY instances; 180 FreePastry nodes per host).
func (c *Cluster) SwapOnset(kind Kind) int {
	switch kind {
	case JVM:
		return (memBytes-jvmsPerHost*jvmBase)/jvmPerInstance + 1
	default:
		return (memBytes-splayDaemonBase)/splayPerInstance + 1
	}
}

// String summarizes the placement for experiment logs.
func (c *Cluster) String() string {
	total := 0
	for _, h := range c.hosts {
		total += h.instances
	}
	return fmt.Sprintf("hostmodel.Cluster{hosts=%d instances=%d}", len(c.hosts), total)
}
