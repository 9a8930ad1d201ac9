package chord

import (
	"fmt"
	"sort"
	"time"

	"github.com/splaykit/splay/internal/transport"
)

// RTTOracle reports the round-trip time between two node addresses. Large
// experiments use the testbed's link model as the oracle when building
// converged latency-aware rings.
type RTTOracle func(a, b transport.Addr) time.Duration

// BuildOptions tunes BuildRing.
type BuildOptions struct {
	// Oracle enables proximity finger selection during the static build:
	// each finger entry is the lowest-RTT node inside the finger's
	// interval, the converged state of MIT Chord's latency-aware tables.
	Oracle RTTOracle
}

// BuildRing statically installs the converged routing state (successors,
// predecessors, successor lists and finger tables) into a set of started
// nodes. It replaces running the join/stabilization protocol for
// large-scale measurements of converged rings, which is how §5.2 measures
// lookups ("we let the Chord overlay stabilize before starting the
// measurements"). The protocol path (Join/Stabilize/FixFingers) is
// exercised by tests and smaller experiments.
func BuildRing(nodes []*Node, opts BuildOptions) error {
	if len(nodes) == 0 {
		return nil
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.ID < sorted[j].self.ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].self.ID == sorted[i-1].self.ID {
			return fmt.Errorf("chord: duplicate identifier %d", sorted[i].self.ID)
		}
	}
	refs := make([]NodeRef, len(sorted))
	for i, n := range sorted {
		refs[i] = n.self
	}
	// successorOf returns the first node with ID ≥ id (circular).
	successorOf := func(id uint64) int {
		idx := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= id })
		if idx == len(refs) {
			idx = 0
		}
		return idx
	}

	for i, n := range sorted {
		prev := sorted[(i+len(sorted)-1)%len(sorted)]
		n.pred = prev.self

		succIdx := (i + 1) % len(sorted)
		n.setSuccessor(refs[succIdx])
		if n.cfg.FaultTolerant {
			n.succs = n.succs[:0]
			for j := 0; j < succListLen && j < len(refs)-1; j++ {
				n.succs = append(n.succs, n.intern(refs[(i+1+j)%len(refs)]))
			}
		}

		for f := uint(2); f <= n.cfg.Bits; f++ {
			start := n.space.FingerStart(n.self.ID, f)
			idx := successorOf(start)
			if opts.Oracle == nil {
				n.finger[f] = n.intern(refs[idx])
				continue
			}
			// Latency-aware: the entry may be any node in the finger's
			// interval [start, start of next finger); pick the closest.
			var hi uint64
			if f == n.cfg.Bits {
				hi = n.self.ID
			} else {
				hi = n.space.FingerStart(n.self.ID, f+1)
			}
			best := refs[idx]
			bestRTT := opts.Oracle(n.self.Addr, best.Addr)
			for j := idx; ; j = (j + 1) % len(refs) {
				r := refs[j]
				if !n.space.Between(r.ID, start, hi, true, false) {
					break
				}
				if rtt := opts.Oracle(n.self.Addr, r.Addr); rtt < bestRTT {
					best, bestRTT = r, rtt
				}
				if (j+1)%len(refs) == idx {
					break
				}
			}
			n.finger[f] = n.intern(best)
		}
	}
	return nil
}

// CheckRing verifies global ring consistency over a set of nodes: the
// successor pointers must form a single cycle visiting every node in
// identifier order, and predecessors must mirror successors. It is used by
// tests and by experiments to assert convergence.
func CheckRing(nodes []*Node) error {
	if len(nodes) == 0 {
		return nil
	}
	byAddr := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.self.Addr.String()] = n
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.ID < sorted[j].self.ID })
	for i, n := range sorted {
		want := sorted[(i+1)%len(sorted)].self
		if got := n.Successor(); got.Addr != want.Addr {
			return fmt.Errorf("chord: node %s successor = %s, want %s", n.self, got, want)
		}
		wantPred := sorted[(i+len(sorted)-1)%len(sorted)].self
		if got := n.Predecessor(); got.Addr != wantPred.Addr {
			return fmt.Errorf("chord: node %s predecessor = %s, want %s", n.self, got, wantPred)
		}
	}
	// Walk the cycle to make sure it is a single loop.
	start := sorted[0]
	cur := start
	for i := 0; i < len(nodes); i++ {
		next, ok := byAddr[cur.Successor().Addr.String()]
		if !ok {
			return fmt.Errorf("chord: successor %s is not a member", cur.Successor())
		}
		cur = next
	}
	if cur != start {
		return fmt.Errorf("chord: successor pointers do not close a single cycle")
	}
	return nil
}

// OwnerOf computes the correct successor of key given the full membership,
// the ground truth for lookup correctness checks.
func OwnerOf(nodes []*Node, key uint64) NodeRef {
	if len(nodes) == 0 {
		return NodeRef{}
	}
	space := nodes[0].space
	key = space.Fold(key)
	best := nodes[0].self
	bestDist := space.Dist(key, best.ID)
	for _, n := range nodes[1:] {
		if d := space.Dist(key, n.self.ID); d < bestDist {
			best, bestDist = n.self, d
		}
	}
	return best
}
