package pastry

import (
	"fmt"
	"sort"

	"github.com/splaykit/splay/internal/stream"
)

// BuildNetwork statically installs converged leaf sets and routing tables
// into a set of started nodes, standing in for running the join protocol
// when §5.3 measures "a converged Pastry ring" at thousands of nodes. The
// join/maintenance path is exercised by tests and churn experiments.
// Each routing-table slot holds a node drawn from its candidates by seed.
func BuildNetwork(nodes []*Node, seed int64) error {
	if len(nodes) == 0 {
		return nil
	}
	rng := stream.Rand(seed, "pastry.build", 0)

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
		for j := 1; j <= halfLeaf && j < len(sorted); j++ {
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
				n.table[row][col] = refs[first+rng.Intn(last-first+1)]
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
		for j := 1; j <= halfLeaf && j < len(sorted); j++ {
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
