package pastry

import (
	"errors"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Instruments is the protocol's optional metric set for the
// observability plane. The zero value disables everything; increments
// are pure memory operations, so attaching instruments never perturbs
// simulation schedules.
type Instruments struct {
	Routes     *metrics.Counter
	RouteFails *metrics.Counter
	Forwards   *metrics.Counter
	Hops       *metrics.Histogram // route length, linear buckets
	Latency    *metrics.Histogram // route wall time, pow2 ns buckets
}

// NewInstruments registers the protocol's canonical series on reg
// ("pastry." prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Routes:     reg.Counter("pastry.routes"),
		RouteFails: reg.Counter("pastry.route_fails"),
		Forwards:   reg.Counter("pastry.forwards"),
		Hops:       reg.Histogram("pastry.hops", metrics.KindHistLinear),
		Latency:    reg.Histogram("pastry.route_latency_ns", metrics.KindHistPow2),
	}
}

// NodeRef names a Pastry node.
type NodeRef struct {
	ID   ID             `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr.IsZero() }

func (r NodeRef) String() string { return fmt.Sprintf("%s@%s", r.ID, r.Addr) }

// leafSize is the total leaf-set size (split between the two sides);
// FreePastry's default is 16 and our implementation is functionally
// identical (§5.3).
const leafSize = 16

// halfLeaf is the per-side leaf capacity.
const halfLeaf = leafSize / 2

// Config parameterizes a node.
type Config struct {
	// ID fixes the identifier; nil hashes the address.
	ID *ID
	// MaintainEvery is the leaf-set/table maintenance period.
	MaintainEvery time.Duration
	// RPCTimeout bounds every remote call.
	RPCTimeout time.Duration
}

// DefaultConfig mirrors the FreePastry-comparable setup of §5.3.
func DefaultConfig() Config {
	return Config{
		MaintainEvery: 10 * time.Second,
		RPCTimeout:    30 * time.Second,
	}
}

// RouteResult reports one resolved key.
type RouteResult struct {
	Root NodeRef
	Hops int
	RTT  time.Duration
}

// ErrRouteFailed is returned when a message cannot make progress.
var ErrRouteFailed = errors.New("pastry: route failed")

// Node is one Pastry instance.
type Node struct {
	ctx  *core.AppContext
	cfg  Config
	self NodeRef

	left  []NodeRef // counter-clockwise leaves, nearest first
	right []NodeRef // clockwise leaves, nearest first
	table [Digits][Radix]NodeRef

	client  *rpc.Client
	selfArg any // self pre-encoded once for join/announce calls
	ins     Instruments
}

// SetInstruments attaches instruments to the node.
func (n *Node) SetInstruments(ins Instruments) { n.ins = ins }

// New creates a node bound to ctx; its address is ctx.Job.Me.
func New(ctx *core.AppContext, cfg Config) *Node {
	if cfg.MaintainEvery <= 0 {
		cfg.MaintainEvery = 10 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 30 * time.Second
	}
	id := hashAddr(ctx.Job.Me)
	if cfg.ID != nil {
		id = *cfg.ID
	}
	n := &Node{
		ctx:  ctx,
		cfg:  cfg,
		self: NodeRef{ID: id, Addr: ctx.Job.Me},
	}
	n.client = rpc.NewClient(ctx)
	n.client.Timeout = cfg.RPCTimeout
	n.selfArg = rpc.PreEncode(n.self)
	return n
}

func hashAddr(a transport.Addr) ID {
	// FNV-1a over the address string: deterministic, well spread.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range []byte(a.String()) {
		h ^= uint64(c)
		h *= prime
	}
	return ID(h)
}

// Self returns the node's reference.
func (n *Node) Self() NodeRef { return n.self }

// Leaves returns the current leaf set (both sides, nearest first).
func (n *Node) Leaves() []NodeRef {
	out := make([]NodeRef, 0, len(n.left)+len(n.right))
	out = append(out, n.left...)
	out = append(out, n.right...)
	return out
}

// Start registers RPC handlers and serves on the node's port.
func (n *Node) Start() error {
	s := rpc.NewServer(n.ctx)
	s.Register("route", n.handleRoute)
	s.Register("join_route", n.handleJoinRoute)
	s.Register("leafset", n.handleLeafset)
	s.Register("announce", n.handleAnnounce)
	s.Register("table_entry", n.handleTableEntry)
	return s.Start(n.ctx.Job.Me.Port)
}

// StartMaintenance launches periodic leaf-set and routing-table repair,
// the stabilization mechanisms §5.3 notes are functionally identical to
// FreePastry's.
func (n *Node) StartMaintenance() {
	n.ctx.Periodic(n.cfg.MaintainEvery, n.Maintain)
}

// ---- Leaf-set bookkeeping ----

// addRef folds a discovered node into the leaf set and routing table.
func (n *Node) addRef(r NodeRef) {
	if r.IsZero() || r.Addr == n.self.Addr {
		return
	}
	n.leafInsert(r)
	n.tableInsert(r)
}

func (n *Node) leafInsert(r NodeRef) {
	insert := func(side []NodeRef, dist func(ID) uint64) []NodeRef {
		d := dist(r.ID)
		for i, x := range side {
			if x.Addr == r.Addr {
				return side
			}
			if d < dist(x.ID) {
				side = append(side[:i], append([]NodeRef{r}, side[i:]...)...)
				if len(side) > halfLeaf {
					side = side[:halfLeaf]
				}
				return side
			}
		}
		if len(side) < halfLeaf {
			side = append(side, r)
		}
		return side
	}
	n.right = insert(n.right, func(id ID) uint64 { return CWDist(n.self.ID, id) })
	n.left = insert(n.left, func(id ID) uint64 { return CWDist(id, n.self.ID) })
}

func (n *Node) tableInsert(r NodeRef) {
	row := CommonPrefix(n.self.ID, r.ID)
	if row >= Digits {
		return
	}
	col := r.ID.Digit(row)
	cur := n.table[row][col]
	if cur.IsZero() {
		n.table[row][col] = r
		return
	}
	if cur.Addr == r.Addr {
		return
	}
	// Locality-aware, the paper's "locality-aware routing table
	// construction": keep the lower-RTT candidate. Only probe when the
	// entry is contested, which keeps maintenance cheap. Another probe may
	// fill the slot while this one pings, so the candidate must beat what
	// the slot holds once the pings return: nothing, a dead entry, or a
	// live one with a higher RTT (probed in turn if it is new).
	n.ctx.Go(func() {
		curRTT, errCur := n.client.Ping(cur.Addr, n.cfg.RPCTimeout)
		newRTT, errNew := n.client.Ping(r.Addr, n.cfg.RPCTimeout)
		for errNew == nil {
			now := n.table[row][col]
			switch {
			case now.Addr == r.Addr:
				return
			case !now.IsZero() && now.Addr != cur.Addr:
				cur = now
				curRTT, errCur = n.client.Ping(cur.Addr, n.cfg.RPCTimeout)
				continue
			case now.IsZero() || errCur != nil || newRTT < curRTT:
				n.table[row][col] = r
			}
			return
		}
	})
}

// suspect removes a peer everywhere after a failed interaction.
func (n *Node) suspect(addr transport.Addr) {
	drop := func(side []NodeRef) []NodeRef {
		kept := side[:0]
		for _, x := range side {
			if x.Addr != addr {
				kept = append(kept, x)
			}
		}
		return kept
	}
	n.left = drop(n.left)
	n.right = drop(n.right)
	for r := range n.table {
		for c := range n.table[r] {
			if n.table[r][c].Addr == addr {
				n.table[r][c] = NodeRef{}
			}
		}
	}
}

// known enumerates every reference this node holds.
func (n *Node) known(yield func(NodeRef) bool) {
	for _, l := range n.left {
		if !yield(l) {
			return
		}
	}
	for _, l := range n.right {
		if !yield(l) {
			return
		}
	}
	for r := range n.table {
		for c := range n.table[r] {
			if e := n.table[r][c]; !e.IsZero() {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// ---- Routing ----

// inLeafRange reports whether key falls inside the arc covered by the
// leaf set (leftmost … self … rightmost).
func (n *Node) inLeafRange(key ID) bool {
	if len(n.left) == 0 || len(n.right) == 0 {
		return false
	}
	lo := n.left[len(n.left)-1].ID
	hi := n.right[len(n.right)-1].ID
	return CWDist(lo, key) <= CWDist(lo, hi)
}

// NextHop makes Pastry's local routing decision for key: the next node to
// forward to, or root == true when this node is the key's root. It is
// exported so protocols built on Pastry (the web cache) can walk routes
// hop by hop.
func (n *Node) NextHop(key ID) (next NodeRef, root bool) {
	if key == n.self.ID {
		return n.self, true
	}
	if n.inLeafRange(key) {
		best := n.self
		for _, l := range n.Leaves() {
			if Closer(key, l.ID, best.ID) {
				best = l
			}
		}
		if best.Addr == n.self.Addr {
			return n.self, true
		}
		return best, false
	}
	r := CommonPrefix(key, n.self.ID)
	if r < Digits {
		if e := n.table[r][key.Digit(r)]; !e.IsZero() {
			return e, false
		}
	}
	// Rare case: any known node at least as prefix-close and strictly
	// numerically closer.
	best := n.self
	n.known(func(c NodeRef) bool {
		if CommonPrefix(c.ID, key) >= r && Closer(key, c.ID, best.ID) {
			best = c
		}
		return true
	})
	if best.Addr == n.self.Addr {
		return n.self, true
	}
	return best, false
}

// routeResult travels on the wire.
type routeResult struct {
	Root NodeRef `json:"root"`
	Hops int     `json:"hops"`
}

func (n *Node) handleRoute(args rpc.Args) (any, error) {
	var key ID
	if err := args.Decode(0, &key); err != nil {
		return nil, err
	}
	return n.route(key, args.Int(1))
}

// route resolves key recursively with per-hop failure recovery: a dead
// next hop is suspected and an alternative chosen, FreePastry's
// "choice of alternate routes upon failure" counterpart.
func (n *Node) route(key ID, hops int) (routeResult, error) {
	for attempt := 0; attempt < 4; attempt++ {
		next, root := n.NextHop(key)
		if root {
			return routeResult{Root: n.self, Hops: hops}, nil
		}
		n.ins.Forwards.Inc()
		res, err := n.client.Call(next.Addr, "route", key, hops+1)
		if err != nil {
			n.suspect(next.Addr)
			continue
		}
		var rr routeResult
		if err := res.Decode(&rr); err != nil {
			return routeResult{}, err
		}
		return rr, nil
	}
	return routeResult{}, ErrRouteFailed
}

// Route resolves the root of key from this node, reporting route length
// and latency — the measurement behind Figs. 7, 9, 10 and 11.
func (n *Node) Route(key ID) (RouteResult, error) {
	n.ins.Routes.Inc()
	start := n.ctx.Now()
	rr, err := n.route(key, 0)
	if err != nil {
		n.ins.RouteFails.Inc()
		return RouteResult{}, err
	}
	rtt := n.ctx.Now().Sub(start)
	n.ins.Hops.Observe(int64(rr.Hops))
	n.ins.Latency.Observe(int64(rtt))
	return RouteResult{Root: rr.Root, Hops: rr.Hops, RTT: rtt}, nil
}

func (n *Node) handleLeafset(rpc.Args) (any, error) {
	return append(n.Leaves(), n.self), nil
}

func (n *Node) handleAnnounce(args rpc.Args) (any, error) {
	var r NodeRef
	if err := args.Decode(0, &r); err != nil {
		return nil, err
	}
	n.addRef(r)
	return nil, nil
}

func (n *Node) handleTableEntry(args rpc.Args) (any, error) {
	row, col := args.Int(0), args.Int(1)
	if row < 0 || row >= Digits || col < 0 || col >= Radix {
		return nil, fmt.Errorf("pastry: bad table coordinates %d/%d", row, col)
	}
	e := n.table[row][col]
	if e.IsZero() {
		return nil, nil
	}
	return e, nil
}
