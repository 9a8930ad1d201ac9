package pastry

import (
	"fmt"
	"sort"
	"time"

	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

// RTTOracle reports round-trip time between two addresses; static builds
// use the testbed's link model to produce converged locality-aware tables.
type RTTOracle func(a, b transport.Addr) time.Duration

// BuildOptions tunes BuildNetwork.
type BuildOptions struct {
	// Oracle enables locality-aware table construction: each slot gets
	// the lowest-RTT node among candidates sharing the required prefix.
	Oracle RTTOracle
	// CandidateSample bounds how many candidates per slot are compared
	// (default 8).
	CandidateSample int
	// Seed drives deterministic slot choices when no oracle is given.
	Seed int64
}

// BuildNetwork statically installs converged leaf sets and routing tables
// into a set of started nodes, standing in for running the join protocol
// when §5.3 measures "a converged Pastry ring" at thousands of nodes. The
// join/maintenance path is exercised by tests and churn experiments.
func BuildNetwork(nodes []*Node, opts BuildOptions) error {
	if len(nodes) == 0 {
		return nil
	}
	if opts.CandidateSample <= 0 {
		opts.CandidateSample = 8
	}
	rng := stream.Rand(opts.Seed, "pastry.build", 0)

	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.ID < sorted[j].self.ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].self.ID == sorted[i-1].self.ID {
			return fmt.Errorf("pastry: duplicate identifier %s", sorted[i].self.ID)
		}
	}
	refs := make([]NodeRef, len(sorted))
	ids := make([]uint64, len(sorted))
	for i, n := range sorted {
		refs[i] = n.self
		ids[i] = uint64(n.self.ID)
	}
	// searchGE returns the index of the first id ≥ v (len when none).
	searchGE := func(v uint64) int {
		return sort.Search(len(ids), func(i int) bool { return ids[i] >= v })
	}

	for i, n := range sorted {
		// Leaf set: nearest neighbors on each side in identifier order.
		n.left, n.right = nil, nil
		half := n.halfCap()
		for j := 1; j <= half && j < len(sorted); j++ {
			n.right = append(n.right, refs[(i+j)%len(refs)])
			n.left = append(n.left, refs[(i-j+len(refs))%len(refs)])
		}

		// Routing table: for every row and column, the candidate range is
		// the contiguous identifier interval sharing our first `row`
		// digits with column digit `col`.
		for row := 0; row < Digits; row++ {
			shift := uint(64 - DigitBits*(row+1))
			prefix := uint64(n.self.ID) >> (shift + DigitBits) << DigitBits
			myDigit := n.self.ID.Digit(row)
			for col := 0; col < Radix; col++ {
				if col == myDigit {
					continue
				}
				lo := (prefix | uint64(col)) << shift
				var hi uint64
				if shift == 64-DigitBits && col == Radix-1 && prefix == 0 {
					hi = ^uint64(0)
				} else {
					hi = lo + (uint64(1) << shift) - 1
				}
				first := searchGE(lo)
				if first == len(ids) || ids[first] > hi {
					n.table[row][col] = NodeRef{}
					continue
				}
				last := searchGE(hi)
				if last == len(ids) || ids[last] > hi {
					last--
				}
				count := last - first + 1
				if opts.Oracle == nil {
					n.table[row][col] = refs[first+rng.Intn(count)]
					continue
				}
				best := NodeRef{}
				var bestRTT time.Duration
				stride := count/opts.CandidateSample + 1
				for j := first; j <= last; j += stride {
					cand := refs[j]
					rtt := opts.Oracle(n.self.Addr, cand.Addr)
					if best.IsZero() || rtt < bestRTT {
						best, bestRTT = cand, rtt
					}
				}
				n.table[row][col] = best
			}
			// Stop once the prefix is unique to this node: deeper rows
			// have no candidates.
			if row < Digits-1 {
				rowShift := uint(64 - DigitBits*(row+1))
				rowPrefix := uint64(n.self.ID) >> rowShift
				loAll := rowPrefix << rowShift
				firstAll := searchGE(loAll)
				lastAll := firstAll
				hiAll := loAll + (uint64(1) << rowShift) - 1
				for lastAll < len(ids) && ids[lastAll] <= hiAll {
					lastAll++
				}
				if lastAll-firstAll <= 1 {
					break
				}
			}
		}
	}
	return nil
}

// OwnerOf returns the true root of key among the given nodes: the
// ground truth for routing correctness.
func OwnerOf(nodes []*Node, key ID) NodeRef {
	best := nodes[0].self
	for _, n := range nodes[1:] {
		if Closer(key, n.self.ID, best.ID) {
			best = n.self
		}
	}
	return best
}

// CheckLeafsets verifies that every node's leaf set holds exactly its
// nearest identifier-space neighbors, the structural invariant routing
// correctness rests on.
func CheckLeafsets(nodes []*Node) error {
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.ID < sorted[j].self.ID })
	for i, n := range sorted {
		half := n.halfCap()
		for j := 1; j <= half && j < len(sorted); j++ {
			wantR := sorted[(i+j)%len(sorted)].self
			if j-1 >= len(n.right) || n.right[j-1].Addr != wantR.Addr {
				return fmt.Errorf("pastry: node %s right[%d] wrong: want %s", n.self, j-1, wantR)
			}
			wantL := sorted[(i-j+len(sorted))%len(sorted)].self
			if j-1 >= len(n.left) || n.left[j-1].Addr != wantL.Addr {
				return fmt.Errorf("pastry: node %s left[%d] wrong: want %s", n.self, j-1, wantL)
			}
		}
	}
	return nil
}
