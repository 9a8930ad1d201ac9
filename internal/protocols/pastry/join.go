package pastry

import (
	"fmt"

	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// joinInfo is the state a joining node collects along the join route: one
// routing-table row donation per hop plus the root's leaf set.
type joinInfo struct {
	Path    []NodeRef   `json:"path"`
	Rows    [][]NodeRef `json:"rows"` // Rows[i] donated by Path[i]
	Leafset []NodeRef   `json:"leafset"`
}

// handleJoinRoute routes a join request toward the joiner's root. Each
// node on the path donates the routing-table row matching its shared
// prefix with the joiner (Pastry's join protocol); the root additionally
// donates its leaf set.
func (n *Node) handleJoinRoute(args rpc.Args) (any, error) {
	var joiner NodeRef
	if err := args.Decode(0, &joiner); err != nil {
		return nil, err
	}
	row := CommonPrefix(n.self.ID, joiner.ID)
	var donation []NodeRef
	if row < Digits {
		for _, e := range n.table[row] {
			if !e.IsZero() {
				donation = append(donation, e)
			}
		}
	}
	donation = append(donation, n.self)

	for attempt := 0; attempt < 4; attempt++ {
		next, root := n.NextHop(joiner.ID)
		if root {
			return joinInfo{
				Path:    []NodeRef{n.self},
				Rows:    [][]NodeRef{donation},
				Leafset: append(n.Leaves(), n.self),
			}, nil
		}
		res, err := n.client.Call(next.Addr, "join_route", joiner)
		if err != nil {
			n.suspect(next.Addr)
			continue
		}
		var info joinInfo
		if err := res.Decode(&info); err != nil {
			return nil, err
		}
		info.Path = append([]NodeRef{n.self}, info.Path...)
		info.Rows = append([][]NodeRef{donation}, info.Rows...)
		return info, nil
	}
	return nil, ErrRouteFailed
}

// Join brings this node into the overlay known to seed: route a join
// message to our own identifier's root, absorb the donated state, then
// announce ourselves to everyone we learned about.
func (n *Node) Join(seed transport.Addr) error {
	res, err := n.client.Call(seed, "join_route", n.selfArg)
	if err != nil {
		return fmt.Errorf("pastry: join via %s: %w", seed, err)
	}
	var info joinInfo
	if err := res.Decode(&info); err != nil {
		return fmt.Errorf("pastry: join: %w", err)
	}
	for _, row := range info.Rows {
		for _, r := range row {
			n.addRef(r)
		}
	}
	for _, r := range info.Leafset {
		n.addRef(r)
	}
	// Announce to every known node so their tables and leaf sets learn
	// about us. Failures are tolerable; maintenance converges the rest.
	seen := map[string]bool{n.self.Addr.String(): true}
	var targets []NodeRef
	n.known(func(r NodeRef) bool {
		if !seen[r.Addr.String()] {
			seen[r.Addr.String()] = true
			targets = append(targets, r)
		}
		return true
	})
	for _, r := range targets {
		n.client.Call(r.Addr, "announce", n.selfArg) //nolint:errcheck
	}
	return nil
}

// Maintain is one round of stabilization: probe the leaf set, drop dead
// members, pull fresh leaf sets from the surviving extremes, and repair
// one routing-table entry. It is cheap enough to run every few seconds on
// thousands of nodes yet recovers the Fig. 10 massive failure within
// minutes.
func (n *Node) Maintain() {
	// Probe leaves; suspects disappear from both structures.
	for _, l := range n.Leaves() {
		if _, err := n.client.Ping(l.Addr, n.cfg.RPCTimeout); err != nil {
			n.suspect(l.Addr)
		}
	}
	// Pull leaf sets from the farthest survivor on each side, absorbing
	// replacements for the dead.
	pull := func(side []NodeRef) {
		if len(side) == 0 {
			return
		}
		far := side[len(side)-1]
		res, err := n.client.Call(far.Addr, "leafset")
		if err != nil {
			n.suspect(far.Addr)
			return
		}
		var refs []NodeRef
		if res.Decode(&refs) == nil {
			for _, r := range refs {
				n.addRef(r)
			}
		}
	}
	pull(n.left)
	pull(n.right)

	// Repair one routing-table slot: verify a random filled entry and try
	// to fill a random empty one by asking a random leaf for its entry.
	rng := n.ctx.Rand()
	row, col := rng.Intn(Digits), rng.Intn(Radix)
	if e := n.table[row][col]; !e.IsZero() {
		if _, err := n.client.Ping(e.Addr, n.cfg.RPCTimeout); err != nil {
			n.suspect(e.Addr)
		}
		return
	}
	leaves := n.Leaves()
	if len(leaves) == 0 {
		return
	}
	donor := leaves[rng.Intn(len(leaves))]
	res, err := n.client.Call(donor.Addr, "table_entry", row, col)
	if err != nil {
		n.suspect(donor.Addr)
		return
	}
	var r NodeRef
	if res.Decode(&r) == nil && !r.IsZero() {
		n.addRef(r)
	}
}
