// Package chord implements the Chord DHT exactly as developed in §4 of the
// paper: the base protocol (Listings 1–3), the fault-tolerant extension
// (rpc.a_call with suspicion, successor/predecessor lists — Listing 4 and
// the surrounding discussion), and the latency-aware finger selection used
// as the "MIT Chord" comparison baseline in §5.2.
//
// The implementation deliberately follows the paper's structure: join,
// stabilize, notify, fix_fingers and check_predecessor map one-to-one onto
// the published pseudo-code, scheduled with the runtime's periodic events.
package chord

import (
	"errors"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/ring"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Instruments is the protocol's optional metric set for the
// observability plane: live counterparts of Stats plus route-length
// and latency distributions. The zero value disables everything;
// increments are pure memory operations, so attaching instruments
// never perturbs simulation schedules (the fig6/lookup10k goldens run
// uninstrumented and stay bit-identical).
type Instruments struct {
	Lookups       *metrics.Counter
	FailedLookups *metrics.Counter
	Forwarded     *metrics.Counter
	Retries       *metrics.Counter   // fault-tolerant re-routes after a failed hop
	Hops          *metrics.Histogram // route length, linear buckets
	Latency       *metrics.Histogram // lookup wall time, pow2 ns buckets
}

// NewInstruments registers the protocol's canonical series on reg
// ("chord." prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Lookups:       reg.Counter("chord.lookups"),
		FailedLookups: reg.Counter("chord.failed_lookups"),
		Forwarded:     reg.Counter("chord.forwarded"),
		Retries:       reg.Counter("chord.retries"),
		Hops:          reg.Histogram("chord.hops", metrics.KindHistLinear),
		Latency:       reg.Histogram("chord.lookup_latency_ns", metrics.KindHistPow2),
	}
}

// Config parameterizes a Chord node.
type Config struct {
	// Bits is m: identifiers live in [0, 2^m). The paper uses m = 24.
	// Values above 52 are rejected (identifiers travel as JSON numbers).
	Bits uint
	// ID fixes the node identifier; when nil the identifier is the hash
	// of the node's address (hashing IP and port, as in the paper).
	ID *uint64
	// StabilizeEvery is the period of stabilize/fix_fingers/
	// check_predecessor (the paper's timeout = 5s).
	StabilizeEvery time.Duration
	// RPCTimeout bounds every remote call. The fault-tolerant PlanetLab
	// deployment shortens it to one minute (Listing 4).
	RPCTimeout time.Duration
	// FaultTolerant enables the §4 extensions: suspicion on failed RPCs
	// and successor lists (the leafset-like structure).
	FaultTolerant bool
	// SuccListLen is the successor-list length (4 in the paper).
	SuccListLen int
	// LatencyAware enables MIT-Chord-style proximity finger selection:
	// among the candidates owning a finger interval, pick the one with
	// the lowest measured RTT.
	LatencyAware bool
	// Candidates bounds how many candidates latency-aware selection
	// probes per finger.
	Candidates int
	// Shared, when set, is the per-partition memory plane this node
	// stores its routing state in (see Shared). All nodes sharing one
	// must live on the same partition. Nil gets a private instance.
	Shared *Shared
}

// DefaultConfig mirrors §4: m=24, 5 s stabilization, 2 min RPC timeout.
func DefaultConfig() Config {
	return Config{
		Bits:           24,
		StabilizeEvery: 5 * time.Second,
		RPCTimeout:     rpc.DefaultTimeout,
		SuccListLen:    4,
		Candidates:     4,
	}
}

// FaultTolerantConfig is the PlanetLab variant: shorter RPC timeout,
// successor lists, suspicion.
func FaultTolerantConfig() Config {
	c := DefaultConfig()
	c.FaultTolerant = true
	c.RPCTimeout = time.Minute
	c.StabilizeEvery = 5 * time.Second
	return c
}

// NodeRef names a Chord node: its ring identifier and address.
type NodeRef struct {
	ID   uint64         `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr.IsZero() }

func (r NodeRef) String() string { return fmt.Sprintf("%d@%s", r.ID, r.Addr) }

// ErrLookupFailed is returned when a lookup cannot make progress (all
// routes toward the key failed).
var ErrLookupFailed = errors.New("chord: lookup failed")

// LookupResult reports a resolved key.
type LookupResult struct {
	Node NodeRef       // the key's successor
	Hops int           // route length (nodes traversed after the source)
	RTT  time.Duration // wall-clock lookup latency
}

// Stats counts per-node protocol activity.
type Stats struct {
	Lookups       uint64
	FailedLookups uint64
	Forwarded     uint64 // find_successor requests forwarded
	Suspected     uint64 // peers pruned after failed RPCs
	StabilizeRuns uint64
	FingersFixed  uint64
}

// Node is one Chord instance.
type Node struct {
	ctx   *core.AppContext
	cfg   *Config // normalized and interned in shared: one copy per deployment
	space ring.Space

	self  NodeRef
	hself ring.Handle // n.self interned, the handle hot paths compare
	pred  NodeRef     // zero when unknown

	// Routing state is stored as intern handles into shared.refs, not
	// references: 4 bytes per entry instead of ~32, with the finger
	// array carved from the partition's slab. See DESIGN.md ("The
	// memory plane").
	shared *Shared
	finger []ring.Handle // 1-based: finger[1] is the successor
	succs  []ring.Handle // successor list (fault-tolerant mode)

	server *rpc.Server
	client *rpc.Client

	selfArg any // n.self pre-encoded once for notify/join calls

	refresh uint // next finger to refresh (paper's refresh variable)
	stats   Stats
	ins     Instruments
	rpcIns  *rpc.Instruments // nil when uninstrumented (the common case at scale)
	stops   []func()
}

// New creates a node bound to ctx. The node's address is ctx.Job.Me.
func New(ctx *core.AppContext, cfg Config) (*Node, error) {
	if cfg.Bits == 0 || cfg.Bits > 52 {
		return nil, fmt.Errorf("chord: bits must be in [1,52], got %d", cfg.Bits)
	}
	if cfg.StabilizeEvery <= 0 {
		cfg.StabilizeEvery = 5 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = rpc.DefaultTimeout
	}
	if cfg.SuccListLen <= 0 {
		cfg.SuccListLen = 4
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 4
	}
	space := ring.NewSpace(cfg.Bits)
	id := space.HashString(ctx.Job.Me.String())
	if cfg.ID != nil {
		id = space.Fold(*cfg.ID)
	}
	shared := cfg.Shared
	if shared == nil {
		shared = NewShared(nil)
	}
	n := &Node{
		ctx:    ctx,
		cfg:    shared.internConfig(cfg),
		space:  space,
		self:   NodeRef{ID: id, Addr: ctx.Job.Me},
		shared: shared,
		finger: shared.fingers(int(cfg.Bits)+1, cfg.Shared == nil),
	}
	// The node's own reference travels in every notify and join; encode
	// it once and hand the canonical bytes to each call.
	n.selfArg = rpc.PreEncode(n.self)
	n.hself = shared.refs.Put(n.self)
	n.finger[1] = n.hself // a fresh node is its own successor
	n.client = rpc.NewClient(ctx)
	n.client.Timeout = cfg.RPCTimeout
	return n, nil
}

// intern resolves a reference to its handle in the node's shared table.
func (n *Node) intern(r NodeRef) ring.Handle { return n.shared.refs.Put(r) }

// ref resolves a handle back to the reference it names.
func (n *Node) ref(h ring.Handle) NodeRef { return n.shared.refs.Get(h) }

// Self returns the node's reference.
func (n *Node) Self() NodeRef { return n.self }

// Successor returns the current successor.
func (n *Node) Successor() NodeRef { return n.ref(n.finger[1]) }

// Predecessor returns the current predecessor (zero when unknown).
func (n *Node) Predecessor() NodeRef { return n.pred }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// SetInstruments attaches instruments to the node.
func (n *Node) SetInstruments(ins Instruments) { n.ins = ins }

// SetRPCInstruments attaches instruments to the node's message plane:
// the RPC client immediately and the server when Start runs.
func (n *Node) SetRPCInstruments(ins rpc.Instruments) {
	n.rpcIns = &ins
	n.client.SetInstruments(ins)
	if n.server != nil {
		n.server.SetInstruments(ins)
	}
}

// Start registers the RPC handlers and serves on the node's port
// (Listing 3: rpc.server(n.port)).
func (n *Node) Start() error {
	s := rpc.NewServer(n.ctx)
	if n.rpcIns != nil {
		s.SetInstruments(*n.rpcIns)
	}
	s.Register("find_successor", n.handleFindSuccessor)
	s.Register("predecessor", n.handlePredecessor)
	s.Register("notify", n.handleNotify)
	s.Register("successors", n.handleSuccessors)
	if err := s.Start(n.ctx.Job.Me.Port); err != nil {
		return err
	}
	n.server = s
	return nil
}

// StartMaintenance launches the periodic stabilization tasks (Listing 3).
func (n *Node) StartMaintenance() {
	n.stops = append(n.stops,
		n.ctx.Periodic(n.cfg.StabilizeEvery, n.Stabilize),
		n.ctx.Periodic(n.cfg.StabilizeEvery, n.CheckPredecessor),
		n.ctx.Periodic(n.cfg.StabilizeEvery, n.FixFingers),
	)
}

// Stop halts maintenance and the RPC server.
func (n *Node) Stop() {
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	if n.server != nil {
		n.server.Close()
	}
}

// Join joins the ring known to seed (Listing 1, join): only the successor
// is set; predecessors converge through stabilization.
func (n *Node) Join(seed transport.Addr) error {
	n.pred = NodeRef{}
	res, err := n.client.Call(seed, "find_successor", n.self.ID, 0)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", seed, err)
	}
	var fr findResult
	if err := res.Decode(&fr); err != nil {
		return fmt.Errorf("chord: join: %w", err)
	}
	n.setSuccessor(fr.Node)
	n.client.Call(n.Successor().Addr, "notify", n.selfArg) //nolint:errcheck // stabilization repairs
	return nil
}

func (n *Node) setSuccessor(s NodeRef) {
	h := n.intern(s)
	n.finger[1] = h
	if n.cfg.FaultTolerant {
		// Keep the list's head coherent with the successor. Handle
		// equality is reference equality: the interner is bijective.
		if len(n.succs) == 0 || n.succs[0] != h {
			n.succs = append([]ring.Handle{h}, n.succs...)
			if len(n.succs) > n.cfg.SuccListLen {
				n.succs = n.succs[:n.cfg.SuccListLen]
			}
		}
	}
}

// Stabilize is the paper's stabilize(): verify our successor's
// predecessor and notify the successor.
func (n *Node) Stabilize() {
	n.stats.StabilizeRuns++
	succ := n.ref(n.finger[1])
	if succ.Addr == n.self.Addr {
		return
	}
	res, err := n.client.Call(succ.Addr, "predecessor")
	if err != nil {
		n.suspect(succ)
		return
	}
	var x NodeRef
	if derr := res.Decode(&x); derr == nil && !x.IsZero() &&
		n.space.Between(x.ID, n.self.ID, succ.ID, false, false) {
		n.setSuccessor(x) // new successor
	}
	n.client.Call(n.Successor().Addr, "notify", n.selfArg) //nolint:errcheck
	if n.cfg.FaultTolerant {
		n.refreshSuccList()
	}
}

// refreshSuccList pulls the successor's successor list, the §4 leafset
// extension.
func (n *Node) refreshSuccList() {
	succ := n.ref(n.finger[1])
	res, err := n.client.Call(succ.Addr, "successors")
	if err != nil {
		n.suspect(succ)
		return
	}
	var list nodeRefs
	if err := res.Decode(&list); err != nil {
		return
	}
	merged := n.succs[:0]
	merged = append(merged, n.finger[1])
	for _, r := range list {
		if r.Addr != n.self.Addr && len(merged) < n.cfg.SuccListLen {
			merged = append(merged, n.intern(r))
		}
	}
	n.succs = merged
}

// CheckPredecessor is the paper's check_predecessor(): ping and clear on
// failure (Listing 1, lines 25–29).
func (n *Node) CheckPredecessor() {
	pred := n.pred
	if pred.IsZero() {
		return
	}
	if _, err := n.client.Ping(pred.Addr, n.cfg.RPCTimeout); err != nil {
		// Re-check: notify may have installed a fresh predecessor while
		// we were blocked in ping — the §4 race discussion.
		if n.pred == pred {
			n.pred = NodeRef{}
		}
	}
}

// FixFingers refreshes one finger per run (Listing 1, fix_fingers).
func (n *Node) FixFingers() {
	n.refresh = (n.refresh % n.cfg.Bits) + 1
	start := n.space.FingerStart(n.self.ID, n.refresh)
	res, err := n.findSuccessor(start, 0)
	if err != nil {
		return
	}
	target := res.Node
	if n.cfg.LatencyAware && n.refresh > 1 {
		target = n.pickNearFinger(n.refresh, target)
	}
	n.stats.FingersFixed++
	if n.refresh == 1 {
		n.setSuccessor(target)
	} else {
		n.finger[n.refresh] = n.intern(target)
	}
}

// pickNearFinger implements proximity finger selection: any node whose
// identifier falls inside finger i's interval is a valid entry, so probe a
// few candidates (the found node and its successors within the interval)
// and keep the lowest-RTT one. This is the optimization the paper credits
// for MIT Chord's lower lookup delays.
func (n *Node) pickNearFinger(i uint, found NodeRef) NodeRef {
	lo := n.space.FingerStart(n.self.ID, i)
	var hi uint64
	if i == n.cfg.Bits {
		hi = n.self.ID
	} else {
		hi = n.space.FingerStart(n.self.ID, i+1)
	}
	candidates := []NodeRef{found}
	res, err := n.client.Call(found.Addr, "successors")
	if err == nil {
		var list nodeRefs
		if res.Decode(&list) == nil {
			for _, r := range list {
				if n.space.Between(r.ID, lo, hi, true, false) {
					candidates = append(candidates, r)
				}
			}
		}
	}
	if len(candidates) > n.cfg.Candidates {
		candidates = candidates[:n.cfg.Candidates]
	}
	best, bestRTT := found, time.Duration(1<<62)
	for _, c := range candidates {
		rtt, err := n.client.Ping(c.Addr, n.cfg.RPCTimeout)
		if err != nil {
			continue
		}
		if rtt < bestRTT {
			best, bestRTT = c, rtt
		}
	}
	return best
}

// suspect prunes a peer from the routing state after a failed call — the
// paper's suspect() (Listing 4). In the base protocol failures only clear
// matching fingers lazily.
func (n *Node) suspect(peer NodeRef) {
	if !n.cfg.FaultTolerant {
		return
	}
	n.stats.Suspected++
	for i := 1; i <= int(n.cfg.Bits); i++ {
		if n.ref(n.finger[i]).Addr == peer.Addr {
			n.finger[i] = 0
		}
	}
	kept := n.succs[:0]
	for _, s := range n.succs {
		if n.ref(s).Addr != peer.Addr {
			kept = append(kept, s)
		}
	}
	n.succs = kept
	if n.finger[1] == 0 {
		if len(n.succs) > 0 {
			n.finger[1] = n.succs[0]
		} else {
			n.finger[1] = n.hself // alone until re-joined
		}
	}
	if n.pred.Addr == peer.Addr {
		n.pred = NodeRef{}
	}
}

// findResult travels on the wire for find_successor.
type findResult struct {
	Node NodeRef `json:"node"`
	Hops int     `json:"hops"`
}

func (n *Node) handleFindSuccessor(args rpc.Args) (any, error) {
	var id uint64
	if err := args.Decode(0, &id); err != nil {
		return nil, err
	}
	hops := args.Int(1)
	res, err := n.findSuccessor(id, hops)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (n *Node) handlePredecessor(rpc.Args) (any, error) {
	if n.pred.IsZero() {
		return nil, nil
	}
	return n.pred, nil
}

// handleNotify is the paper's notify(): n0 thinks it might be our
// predecessor.
func (n *Node) handleNotify(args rpc.Args) (any, error) {
	var n0 NodeRef
	if err := args.Decode(0, &n0); err != nil {
		return nil, err
	}
	if n.pred.IsZero() || n.space.Between(n0.ID, n.pred.ID, n.self.ID, false, false) {
		n.pred = n0
	}
	// A lone node adopts its first contact as successor too.
	if n.ref(n.finger[1]).Addr == n.self.Addr && n0.Addr != n.self.Addr {
		n.setSuccessor(n0)
	}
	return nil, nil
}

func (n *Node) handleSuccessors(rpc.Args) (any, error) {
	if n.cfg.FaultTolerant {
		// Materialize references for the wire; handles are meaningless
		// outside this partition's intern table.
		list := make(nodeRefs, len(n.succs))
		for i, h := range n.succs {
			list[i] = n.ref(h)
		}
		return list, nil
	}
	return nodeRefs{n.ref(n.finger[1])}, nil
}

// findSuccessor resolves id recursively (Listing 2): answer locally when
// id ∈ (n, successor], otherwise forward to the closest preceding finger.
// In fault-tolerant mode failed next hops are suspected and alternates
// tried.
func (n *Node) findSuccessor(id uint64, hops int) (findResult, error) {
	succ := n.ref(n.finger[1])
	if succ.Addr == n.self.Addr || n.space.Between(id, n.self.ID, succ.ID, false, true) {
		return findResult{Node: succ, Hops: hops}, nil
	}
	tries := 1
	if n.cfg.FaultTolerant {
		tries = 3
	}
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		n0 := n.closestPreceding(id)
		if n0.Addr == n.self.Addr {
			// No finger precedes id: delegate to the successor.
			n0 = succ
		}
		n.stats.Forwarded++
		n.ins.Forwarded.Inc()
		if attempt > 0 {
			n.ins.Retries.Inc()
		}
		res, err := n.client.Call(n0.Addr, "find_successor", id, hops+1)
		if err != nil {
			lastErr = err
			n.suspect(n0)
			if n0.Addr == succ.Addr && len(n.succs) == 0 {
				break
			}
			succ = n.ref(n.finger[1])
			continue
		}
		var fr findResult
		if err := res.Decode(&fr); err != nil {
			return findResult{}, err
		}
		return fr, nil
	}
	n.stats.FailedLookups++
	if lastErr == nil {
		lastErr = ErrLookupFailed
	}
	return findResult{}, fmt.Errorf("%w: %v", ErrLookupFailed, lastErr)
}

// closestPreceding scans the finger table top-down for the closest finger
// preceding id (Listing 2).
func (n *Node) closestPreceding(id uint64) NodeRef {
	for i := int(n.cfg.Bits); i >= 1; i-- {
		h := n.finger[i]
		if h == 0 {
			continue
		}
		f := n.ref(h)
		if f.Addr != n.self.Addr &&
			n.space.Between(f.ID, n.self.ID, id, false, false) {
			return f
		}
	}
	return n.self
}

// Lookup resolves the successor of key, reporting route length and
// latency — the measurement §5.2 performs 50 times per node.
func (n *Node) Lookup(key uint64) (LookupResult, error) {
	n.stats.Lookups++
	n.ins.Lookups.Inc()
	start := n.ctx.Now()
	res, err := n.findSuccessor(n.space.Fold(key), 0)
	if err != nil {
		n.ins.FailedLookups.Inc()
		return LookupResult{}, err
	}
	rtt := n.ctx.Now().Sub(start)
	n.ins.Hops.Observe(int64(res.Hops))
	n.ins.Latency.Observe(int64(rtt))
	return LookupResult{Node: res.Node, Hops: res.Hops, RTT: rtt}, nil
}
