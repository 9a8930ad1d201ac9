package core

import (
	"encoding/json"
	"errors"
	"time"

	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/transport"
)

// ErrNoCollector is returned by StartReporting when the instance's host
// granted no collect target: a scenario that collects no metrics, a
// daemon started without -metrics.
var ErrNoCollector = errors.New("splay: the instance's host collects no metrics")

// Collect names the aggregator an instance's metric registry streams to.
type Collect struct {
	Addr  transport.Addr
	Key   string
	Every time.Duration // flush period
}

// Grant is what a host gives one instance on top of the node it starts it
// on — the paper's rule that restrictions and services are set outside the
// application by whoever hosts it (§3.1). It lives on the context, so it
// binds everything built there: SDK calls, protocol libraries and their
// RPC clients alike. The zero Grant changes nothing.
type Grant struct {
	// Net tightens the instance's network stack; limits compose with what
	// the node already enforces, they never weaken it.
	Net sandbox.NetLimits
	// NoNet, when non-nil, withholds the network: Listen, Dial and
	// ListenPacket on the instance's node fail with it.
	NoNet error
	// Collect is where StartReporting streams to (nil: ErrNoCollector).
	Collect *Collect
	// RPCFault is the fault plane's verdict on each outgoing request.
	// rpc.NewClient reads it, so every client of the instance carries it;
	// nil — any host without a fault plan — leaves clients bare (invariant 8).
	RPCFault func(to transport.Addr, method string) (drop bool, delay time.Duration)
}

// Granted returns app with g applied to its context before it runs.
func Granted(app App, g Grant) App {
	return AppFunc(func(ctx *AppContext) error {
		ctx.Grant(g)
		return app.Run(ctx)
	})
}

// Granted returns f with g applied to the context of every instance it
// builds, before the application sees it.
func (f Factory) Granted(g Grant) Factory {
	return f.GrantedBy(func(*AppContext) Grant { return g })
}

// GrantedBy is Granted with the grant chosen per instance, from the context
// it is about to run in: a host whose services differ by where an instance
// lands (the simulated fault plane keeps one RPC filter per kernel
// partition) picks them there.
func (f Factory) GrantedBy(g func(*AppContext) Grant) Factory {
	return func(params json.RawMessage) (App, error) {
		app, err := f(params)
		if err != nil {
			return nil, err
		}
		return AppFunc(func(ctx *AppContext) error {
			ctx.Grant(g(ctx))
			return app.Run(ctx)
		}), nil
	}
}

// Grant applies g to the instance. The node is restricted in place, so
// hosts grant before the application opens a socket (Granted). However
// many hosts grant limits — the daemon its administrator's, a scenario
// its AppSpec.Env's — the instance has one sandbox: the first limits wrap
// the node, later ones tighten that wrapper.
func (c *AppContext) Grant(g Grant) {
	switch {
	case g.NoNet != nil:
		c.node = noNet{host: c.node.Host(), err: g.NoNet}
	case g.Net.MaxSockets > 0 || g.Net.MaxTxBytes > 0 || g.Net.MaxRxBytes > 0 || len(g.Net.Blacklist) > 0:
		if sb, ok := c.node.(*sandbox.Node); ok {
			sb.Tighten(g.Net)
			break
		}
		sb := sandbox.Wrap(c.node, g.Net)
		c.OnKill(sb.CloseAll)
		c.node = sb
	}
	if g.Collect != nil {
		c.collect = g.Collect
	}
	if g.RPCFault != nil {
		c.rpcFault = g.RPCFault
	}
}

// noNet is the network stack of an instance whose host withheld the
// network: every socket operation fails with the host's error.
type noNet struct {
	host string
	err  error
}

func (n noNet) Host() string                                   { return n.host }
func (n noNet) Listen(int) (transport.Listener, error)         { return nil, n.err }
func (n noNet) ListenPacket(int) (transport.PacketConn, error) { return nil, n.err }
func (n noNet) Dial(transport.Addr, time.Duration) (transport.Conn, error) {
	return nil, n.err
}

// RPCFault returns the fault plane's message filter, nil without one.
func (c *AppContext) RPCFault() func(transport.Addr, string) (bool, time.Duration) { return c.rpcFault }

// Metrics returns the instance's metric registry, created on first use.
// Instruments are pure memory operations; they reach an aggregator only
// through StartReporting (or a reporter the application wires itself).
func (c *AppContext) Metrics() *metrics.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reg == nil {
		c.reg = metrics.NewRegistry()
	}
	return c.reg
}

// StartReporting streams the instance's metric registry to the host's
// aggregator as batched delta reports, one flush per collection period,
// until the instance is killed. The stream is network traffic like any
// other: dialed through the instance's own stack and charged against its
// limits. A failed flush redials, so telemetry resumes once a partition
// heals; a stream nothing cuts never fails a flush and never redials, and
// one that ran into the instance's own quota (ErrLimit) stays down — a
// redial would be refused the same way.
func (c *AppContext) StartReporting() error {
	if c.collect == nil {
		return ErrNoCollector
	}
	rep, err := metrics.DialReporter(c.node, c.collect.Addr, c.Metrics(),
		metrics.ReporterConfig{Key: c.collect.Key, Node: c.Job.Me.Host})
	if err != nil {
		return err
	}
	c.Track(rep)
	c.Periodic(c.collect.Every, func() {
		if err := rep.Flush(); err == nil || errors.Is(err, transport.ErrLimit) {
			return
		}
		rep.Reconnect() //nolint:errcheck // retried next period
		if c.Killed() { // Kill ran during the dial and closed the old stream
			rep.Close()
		}
	})
	return nil
}
