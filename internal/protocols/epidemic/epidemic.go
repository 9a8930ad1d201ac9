// Package epidemic implements probabilistic epidemic broadcast on
// Erdős–Rényi random graphs (§5.1's "Epidemic" example): a node that
// learns a rumor forwards it once to a fanout of randomly chosen peers.
// With fanout ≈ ln(N) + c the rumor reaches all nodes with probability
// e^(-e^(-c)), the classic sharp-threshold result.
package epidemic

import (
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// Config parameterizes a node.
type Config struct {
	// Fanout is the number of random peers each infected node contacts.
	Fanout int
	// RPCTimeout bounds each push.
	RPCTimeout time.Duration
}

// DefaultConfig uses fanout 8 (≈ ln(1000) + 1).
func DefaultConfig() Config {
	return Config{Fanout: 8, RPCTimeout: 10 * time.Second}
}

// Node is one epidemic participant.
type Node struct {
	ctx    *core.AppContext
	cfg    Config
	self   transport.Addr
	peers  []transport.Addr // known membership (static, as in the paper's class-room usage)
	seen   map[string]bool
	client *rpc.Client

	// Delivered records (rumor id → delivery time) for measurements.
	Delivered map[string]time.Time
	// OnDeliver, if set, runs on first delivery of each rumor.
	OnDeliver func(id string, payload []byte)
}

// New creates a node; peers is the full membership.
func New(ctx *core.AppContext, cfg Config, peers []transport.Addr) *Node {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 8
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	var others []transport.Addr
	for _, p := range peers {
		if p != ctx.Job.Me {
			others = append(others, p)
		}
	}
	n := &Node{
		ctx: ctx, cfg: cfg, self: ctx.Job.Me, peers: others,
		seen:      make(map[string]bool),
		Delivered: make(map[string]time.Time),
	}
	n.client = rpc.NewClient(ctx)
	n.client.Timeout = cfg.RPCTimeout
	return n
}

// Start serves pushes.
func (n *Node) Start() error {
	s := rpc.NewServer(n.ctx)
	s.Register("rumor", n.handleRumor)
	return s.Start(n.self.Port)
}

// Broadcast originates a rumor from this node.
func (n *Node) Broadcast(id string, payload []byte) {
	n.deliver(id, payload)
}

func (n *Node) handleRumor(args rpc.Args) (any, error) {
	id := args.String(0)
	var payload []byte
	args.Decode(1, &payload) //nolint:errcheck // empty payloads are fine
	n.deliver(id, payload)
	return nil, nil
}

// deliver marks the rumor seen and forwards it to Fanout random peers.
func (n *Node) deliver(id string, payload []byte) {
	if n.seen[id] {
		return
	}
	n.seen[id] = true
	n.Delivered[id] = n.ctx.Now()
	if n.OnDeliver != nil {
		n.OnDeliver(id, payload)
	}
	rng := n.ctx.Rand()
	perm := rng.Perm(len(n.peers))
	count := n.cfg.Fanout
	if count > len(perm) {
		count = len(perm)
	}
	for _, i := range perm[:count] {
		peer := n.peers[i]
		n.ctx.Go(func() {
			n.client.Call(peer, "rumor", id, payload) //nolint:errcheck // best effort
		})
	}
}
