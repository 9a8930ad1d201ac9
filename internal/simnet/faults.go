package simnet

import (
	"sort"
	"time"
)

// This file is simnet's half of the fault plane (see internal/faults):
// partitions and link degradation, applied by the scenario layer's
// actuators from inside kernel tasks. Every hook these methods arm is
// checked behind the nil/zero fields of faultState, so a network that
// never sees a fault call runs the exact same event schedule and rng
// sequence as before the fault plane existed.
//
// Each kernel partition holds its own replica of that state and reads only
// its own, so no partition reads what another writes inside a window. A
// change reaches every replica through Stage: inline on a single-partition
// network, at the current window's barrier otherwise — one virtual instant
// for every partition, whatever the worker count.

// faultState is one partition's replica of the network's fault state. All
// zero when no fault is active.
type faultState struct {
	partition []bool        // partition side by host id; nil = no partition
	degHosts  []bool        // degraded hosts; nil while degraded = all hosts
	degExtra  time.Duration // added one-way delay on degraded links
	degLoss   float64       // added datagram loss on degraded links
	degraded  bool          // Degrade active (degExtra/degLoss may be 0)
}

// Stage runs fn on partition to on behalf of a task running on partition
// from. On a single-partition network it runs inline, in the calling task;
// otherwise it runs as an event on partition to at the current lookahead
// window's barrier (sim.ParKernel.PostBarrier), so changes staged onto
// several partitions from one task take effect on all of them at one
// virtual instant, the same for every worker count.
func (nw *Network) Stage(from, to int, fn func()) {
	if len(nw.parts) == 1 {
		fn()
		return
	}
	nw.pk.PostBarrier(from, to, fn)
}

// stageAll stages fn onto every partition's replica, in partition order.
func (nw *Network) stageAll(from int, fn func(pt *netPart)) {
	for p := range nw.parts {
		pt := &nw.parts[p]
		nw.Stage(from, p, func() { fn(pt) })
	}
}

// Partition splits the network: hosts with sideB[id] true form one group,
// the rest the other, and no traffic crosses. Crossing stream connections
// reset (both endpoints observe errors, in connection creation order so
// simulations stay deterministic); crossing dials and datagrams blackhole
// until HealPartition. Bytes already in flight still arrive — a partition
// severs links, it does not reach into receive queues. On a partitioned
// network each partition resets the endpoints its hosts own, when the cut
// reaches it (see Stage).
//
// from is the partition of the calling task. A second call replaces the
// first.
func (nw *Network) Partition(from int, sideB []bool) {
	nw.stageAll(from, func(pt *netPart) {
		pt.faults.partition = sideB
		if sideB == nil {
			return
		}
		var crossing []*conn
		for _, h := range nw.hosts {
			if h.np() != pt {
				continue
			}
			for _, c := range h.conns {
				if pt.faults.cut(c.host().id, c.peer().id) {
					crossing = append(crossing, c)
				}
			}
		}
		sort.Slice(crossing, func(i, j int) bool { return crossing[i].seq < crossing[j].seq })
		for _, c := range crossing {
			c.reset()
		}
	})
}

// HealPartition removes the partition. Reconnection is the application's
// job (daemons redial the controller, protocols repair their links).
func (nw *Network) HealPartition(from int) {
	nw.stageAll(from, func(pt *netPart) { pt.faults.partition = nil })
}

// cut reports whether the active partition separates hosts a and b.
func (f *faultState) cut(a, b int) bool {
	p := f.partition
	return p != nil && a < len(p) && b < len(p) && p[a] != p[b]
}

// Degrade adds extra one-way latency and datagram loss to links touching
// the selected hosts (nil selects every host). Streams stay reliable, as
// in the link model proper; only their delivery slows down. from is the
// partition of the calling task.
func (nw *Network) Degrade(from int, hosts []bool, extraLatency time.Duration, loss float64) {
	nw.stageAll(from, func(pt *netPart) {
		pt.faults = faultState{partition: pt.faults.partition,
			degHosts: hosts, degExtra: extraLatency, degLoss: loss, degraded: true}
	})
}

// Restore removes the degradation.
func (nw *Network) Restore(from int) {
	nw.stageAll(from, func(pt *netPart) { pt.faults = faultState{partition: pt.faults.partition} })
}

// degApplies reports whether degradation touches the a→b link.
func (f *faultState) degApplies(a, b int) bool {
	h := f.degHosts
	if h == nil {
		return true
	}
	return (a < len(h) && h[a]) || (b < len(h) && h[b])
}
