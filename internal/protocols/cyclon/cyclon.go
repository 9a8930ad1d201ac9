// Package cyclon implements the Cyclon gossip-based membership protocol
// (Voulgaris et al.), one of the paper's §5.1 example applications. Each
// node keeps a small partial view; periodically it shuffles a subset of
// its view (plus a fresh self-entry) with the oldest peer, yielding an
// in-degree distribution close to uniform — inexpensive membership for
// unstructured overlays.
package cyclon

import (
	"slices"
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
	keys   []uint64 // keys[i] is view[i].Addr.Key(); add and remove keep them in step
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
	n := &Node{ctx: ctx, cfg: cfg, self: ctx.Job.Me, client: rpc.NewClient(ctx),
		view: make([]Entry, 0, cfg.ViewSize), keys: make([]uint64, 0, cfg.ViewSize)}
	n.client.Timeout = cfg.RPCTimeout
	return n
}

// View returns a copy of the current partial view.
func (n *Node) View() []Entry { return append([]Entry(nil), n.view...) }

// Start serves shuffles and begins gossiping from the bootstrap peers
// (typically ctx.Job.Nodes).
func (n *Node) Start(bootstrap []transport.Addr) error {
	for _, a := range bootstrap {
		if a != n.self && n.find(a) < 0 {
			n.add(Entry{Addr: a})
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

// find returns the index of a's entry in the view, or -1, comparing keys
// before addresses.
func (n *Node) find(a transport.Addr) int {
	k := a.Key()
	for i, ki := range n.keys {
		if ki == k && n.view[i].Addr == a {
			return i
		}
	}
	return -1
}

// add appends e to the view; remove deletes entry i, keeping the order of
// the rest.
func (n *Node) add(e Entry) { n.view, n.keys = append(n.view, e), append(n.keys, e.Addr.Key()) }
func (n *Node) remove(i int) {
	n.view, n.keys = slices.Delete(n.view, i, i+1), slices.Delete(n.keys, i, i+1)
}

// sample copies up to l entries (excluding the peer at skip) into a wire
// payload of ShuffleLen capacity, which leaves the initiator (l =
// ShuffleLen-1) a spare slot for its self-entry. It visits the view in
// rand.Perm's order, drawn on the stack with Perm's own Intn calls, so the
// RNG ends where Perm leaves it. Entries stay in the view: Cyclon only
// discards a sent entry when the received ones need its slot, so view
// sizes are conserved even when replies are short or lost.
func (n *Node) sample(l int, skip transport.Addr) []Entry {
	var buf [64]int // a larger view (a big bootstrap) grows perm onto the heap
	perm, rng := buf[:0], n.ctx.Rand()
	for i := range n.view {
		perm = append(perm, i)
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]Entry, 0, n.cfg.ShuffleLen)
	for _, i := range perm {
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
// entries we sent in the same exchange (sacrificable) are replaced first,
// earliest sent first; further incoming entries are dropped. No entry of
// sacrificable[:next] is in the view, so each eviction resumes its search
// at next instead of rescanning the candidates from the start.
func (n *Node) merge(in, sacrificable []Entry) {
	next := 0
	for _, e := range in {
		if e.Addr == n.self {
			continue
		}
		if i := n.find(e.Addr); i >= 0 {
			n.view[i].Age = min(n.view[i].Age, e.Age) // refresh age only
			continue
		}
		if len(n.view) >= n.cfg.ViewSize {
			i := -1
			for ; i < 0 && next < len(sacrificable); next++ {
				i = n.find(sacrificable[next].Addr)
			}
			if i < 0 {
				continue // nothing sacrificable left: drop the entry
			}
			n.remove(i)
		}
		n.add(e)
		// An entry sent and evicted earlier in this exchange may come back:
		// it is sacrificable again.
		if j := slices.IndexFunc(sacrificable[:next], func(s Entry) bool { return s.Addr == e.Addr }); j >= 0 {
			next = j
		}
	}
}

// shuffle is one gossip round: age the view, contact the oldest peer with
// a sample plus a fresh self-entry, and merge its reply.
func (n *Node) shuffle() {
	if len(n.view) == 0 {
		return
	}
	oldest := 0
	for i := range n.view {
		n.view[i].Age++
		if n.view[i].Age > n.view[oldest].Age {
			oldest = i
		}
	}
	peer := n.view[oldest].Addr
	n.remove(oldest) // replaced by our fresh entry at the peer's side

	send := n.sample(n.cfg.ShuffleLen-1, peer)
	res, err := n.client.Call(peer, "shuffle", append(send, Entry{Addr: n.self}))
	var reply []Entry
	if err != nil || res.Decode(&reply) != nil {
		return // a dead peer is already dropped from the view
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
	return reply, nil
}
