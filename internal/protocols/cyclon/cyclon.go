// Package cyclon implements the Cyclon gossip-based membership protocol
// (Voulgaris et al.), one of the paper's §5.1 example applications. Each
// node keeps a small partial view; periodically it shuffles a subset of
// its view (plus a fresh self-entry) with the oldest peer, yielding an
// in-degree distribution close to uniform — inexpensive membership for
// unstructured overlays.
package cyclon

import (
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Instruments is the protocol's optional metric set for the
// observability plane. The zero value disables everything; updates are
// pure memory operations, so attaching instruments never perturbs
// simulation schedules.
type Instruments struct {
	Shuffles *metrics.Counter // completed shuffle initiations
	View     *metrics.Gauge   // current partial-view size
}

// NewInstruments registers the protocol's canonical series on reg
// ("cyclon." prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Shuffles: reg.Counter("cyclon.shuffles"),
		View:     reg.Gauge("cyclon.view"),
	}
}

// Entry is one view element: a peer plus its gossip age.
type Entry struct {
	Addr transport.Addr `json:"addr"`
	Age  int            `json:"age"`
}

// Config parameterizes a node.
type Config struct {
	ViewSize     int           // c: partial view size (paper-typical: 20)
	ShuffleLen   int           // l: entries exchanged per shuffle
	ShuffleEvery time.Duration // gossip period
	RPCTimeout   time.Duration
}

// DefaultConfig uses the values common in the Cyclon literature.
func DefaultConfig() Config {
	return Config{ViewSize: 20, ShuffleLen: 8, ShuffleEvery: 5 * time.Second, RPCTimeout: 10 * time.Second}
}

// Node is one Cyclon instance.
type Node struct {
	ctx    *core.AppContext
	cfg    Config
	self   transport.Addr
	view   []Entry
	client *rpc.Client
	server *rpc.Server
	stop   func()
	ins    Instruments

	// Shuffles counts completed shuffle initiations.
	Shuffles uint64
}

// SetInstruments attaches instruments to the node.
func (n *Node) SetInstruments(ins Instruments) { n.ins = ins }

// New creates a node; its address is ctx.Job.Me.
func New(ctx *core.AppContext, cfg Config) *Node {
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = 20
	}
	if cfg.ShuffleLen <= 0 || cfg.ShuffleLen > cfg.ViewSize {
		cfg.ShuffleLen = cfg.ViewSize / 2
	}
	if cfg.ShuffleEvery <= 0 {
		cfg.ShuffleEvery = 5 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	n := &Node{ctx: ctx, cfg: cfg, self: ctx.Job.Me}
	n.client = rpc.NewClient(ctx)
	n.client.Timeout = cfg.RPCTimeout
	return n
}

// View returns a copy of the current partial view.
func (n *Node) View() []Entry { return append([]Entry(nil), n.view...) }

// Start serves shuffles and begins gossiping from the bootstrap peers
// (typically ctx.Job.Nodes).
func (n *Node) Start(bootstrap []transport.Addr) error {
	for _, a := range bootstrap {
		if a != n.self {
			n.insert(Entry{Addr: a})
		}
	}
	s := rpc.NewServer(n.ctx)
	s.Register("shuffle", n.handleShuffle)
	if err := s.Start(n.self.Port); err != nil {
		return err
	}
	n.server = s
	n.stop = n.ctx.Periodic(n.cfg.ShuffleEvery, n.shuffle)
	return nil
}

// Stop halts gossip and the RPC server.
func (n *Node) Stop() {
	if n.stop != nil {
		n.stop()
	}
	if n.server != nil {
		n.server.Close()
	}
}

func (n *Node) insert(e Entry) {
	for i := range n.view {
		if n.view[i].Addr == e.Addr {
			if e.Age < n.view[i].Age {
				n.view[i].Age = e.Age
			}
			return
		}
	}
	n.view = append(n.view, e)
}

// removeAddr drops a peer from the view.
func (n *Node) removeAddr(a transport.Addr) {
	kept := n.view[:0]
	for _, e := range n.view {
		if e.Addr != a {
			kept = append(kept, e)
		}
	}
	n.view = kept
}

// sample copies up to l entries (excluding the peer at skip). Entries
// stay in the view: Cyclon only discards a sent entry when the received
// ones need its slot, so view sizes are conserved even when replies are
// short or lost.
func (n *Node) sample(l int, skip transport.Addr) []Entry {
	rng := n.ctx.Rand()
	idx := rng.Perm(len(n.view))
	var out []Entry
	for _, i := range idx {
		if len(out) >= l {
			break
		}
		if n.view[i].Addr == skip {
			continue
		}
		out = append(out, n.view[i])
	}
	return out
}

// merge folds received entries into the view. When the view is full, the
// entries we sent in the same exchange (sacrificable) are replaced first;
// further incoming entries are dropped.
func (n *Node) merge(in, sacrificable []Entry) {
	for _, e := range in {
		if e.Addr == n.self {
			continue
		}
		if n.contains(e.Addr) {
			n.insert(e) // refresh age only
			continue
		}
		if len(n.view) >= n.cfg.ViewSize {
			if !n.evictOneOf(sacrificable) {
				continue // nothing sacrificable left: drop the entry
			}
		}
		n.insert(e)
	}
}

func (n *Node) contains(a transport.Addr) bool {
	for i := range n.view {
		if n.view[i].Addr == a {
			return true
		}
	}
	return false
}

// evictOneOf removes the first view entry that appears in the candidates
// and reports whether one was removed.
func (n *Node) evictOneOf(candidates []Entry) bool {
	for _, c := range candidates {
		for i := range n.view {
			if n.view[i].Addr == c.Addr {
				n.view = append(n.view[:i], n.view[i+1:]...)
				return true
			}
		}
	}
	return false
}

// shuffle is one gossip round: age the view, contact the oldest peer with
// a sample plus a fresh self-entry, and merge its reply.
func (n *Node) shuffle() {
	if len(n.view) == 0 {
		return
	}
	for i := range n.view {
		n.view[i].Age++
	}
	oldest := 0
	for i := range n.view {
		if n.view[i].Age > n.view[oldest].Age {
			oldest = i
		}
	}
	peer := n.view[oldest].Addr
	n.removeAddr(peer) // replaced by our fresh entry at the peer's side

	send := n.sample(n.cfg.ShuffleLen-1, peer)
	payload := append(append([]Entry(nil), send...), Entry{Addr: n.self, Age: 0})
	res, err := n.client.Call(peer, "shuffle", payload)
	if err != nil {
		return // dead peer already dropped from the view
	}
	var reply []Entry
	if err := res.Decode(&reply); err != nil {
		return
	}
	n.merge(reply, send)
	n.Shuffles++
	n.ins.Shuffles.Inc()
	n.ins.View.Set(int64(len(n.view)))
}

// handleShuffle answers a shuffle: return our own sample and merge
// theirs.
func (n *Node) handleShuffle(args rpc.Args) (any, error) {
	var in []Entry
	if err := args.Decode(0, &in); err != nil {
		return nil, err
	}
	reply := n.sample(n.cfg.ShuffleLen, transport.Addr{})
	n.merge(in, reply)
	n.ins.View.Set(int64(len(n.view)))
	if reply == nil {
		reply = []Entry{}
	}
	return reply, nil
}
