package splay

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/transport"
	"github.com/splaykit/splay/internal/wire"
)

// Re-exported types: the SDK's application-facing vocabulary. These are
// aliases, so values flow freely between the SDK surface and the engine
// underneath; external modules can name them through this package without
// importing internal paths.
type (
	// Addr is a host:port network address.
	Addr = transport.Addr
	// Conn is a stream connection.
	Conn = transport.Conn
	// Listener accepts stream connections.
	Listener = transport.Listener
	// PacketConn is a datagram socket.
	PacketConn = transport.PacketConn
	// JobInfo carries deployment information (job.me/nodes/position).
	JobInfo = core.JobInfo
	// Logger is the application logging surface.
	Logger = core.Logger
	// Lock is the cooperative lock library.
	Lock = core.Lock
	// FS is the sandboxed virtual filesystem (the paper's sb_fs).
	FS = sandbox.FS
	// File is an open sandboxed file handle.
	File = sandbox.File
	// FSLimits restricts a sandboxed filesystem.
	FSLimits = sandbox.FSLimits
	// NetLimits restricts a sandboxed network stack (the paper's sb_socket).
	NetLimits = sandbox.NetLimits
	// Counter is a monotone metric instrument.
	Counter = metrics.Counter
	// Gauge is an up/down metric instrument.
	Gauge = metrics.Gauge
	// Histogram is a fixed-bucket distribution instrument.
	Histogram = metrics.Histogram
	// MetricsRegistry holds an instance's metric instruments.
	MetricsRegistry = metrics.Registry
	// RPCServer serves JSON-RPC style calls between instances.
	RPCServer = rpc.Server
	// RPCClient issues calls to RPCServers.
	RPCClient = rpc.Client
	// RPCArgs is the argument view an RPC handler receives.
	RPCArgs = rpc.Args
	// RPCResult is a call's decoded return payload.
	RPCResult = rpc.Result
	// RPCHandler handles one registered RPC method.
	RPCHandler = rpc.Handler
)

// Histogram bucket layouts (see Env.Metrics).
const (
	HistLinear = metrics.KindHistLinear
	HistPow2   = metrics.KindHistPow2
)

// Re-exported sandbox and transport errors, so applications can test for
// them with errors.Is without importing internal packages.
var (
	ErrQuota        = sandbox.ErrQuota
	ErrTooManyFiles = sandbox.ErrTooManyFiles
	ErrLimit        = transport.ErrLimit
	ErrBlacklisted  = transport.ErrBlacklisted
	ErrTimeout      = error(transport.ErrTimeout)
	ErrRefused      = transport.ErrRefused
)

// Cap is one capability an Env may hold. The daemon (and the Scenario
// deploying through it) grants capabilities per application; everything
// not granted fails with a CapabilityError instead of silently working,
// mirroring the paper's rule that restrictions are set outside the
// application and may only ever be tightened.
type Cap uint32

// Capabilities. The bit values are the serialized form's.
const (
	// CapNet grants the sandboxed socket layer: Dial, Listen,
	// ListenPacket, and the RPC helpers.
	CapNet = Cap(wire.CapNet)
	// CapFS grants the sandboxed virtual filesystem.
	CapFS = Cap(wire.CapFS)

	// AllCaps is the default grant.
	AllCaps Cap = CapNet | CapFS
)

func (c Cap) String() string {
	switch c {
	case CapNet:
		return "net"
	case CapFS:
		return "fs"
	}
	return fmt.Sprintf("cap(%d)", uint32(c))
}

// CapabilityError reports an operation denied because the Env does not
// hold the required capability.
type CapabilityError struct{ Cap Cap }

func (e *CapabilityError) Error() string {
	return fmt.Sprintf("splay: capability %q denied", e.Cap)
}

// ErrNoCollector is returned by Env.StartReporting when the host the
// instance runs under — a scenario, a daemon — collects no metrics.
var ErrNoCollector = core.ErrNoCollector

// ErrNoController is returned (wrapped with the offending entry) by what
// needs a controller and its daemons on a session that has none — a
// Scenario.Churn session, whose trace owns the population: Crash/Restart
// fault events and ActKill/ActGrow trigger actions (at Start),
// Session.Deploy, Session.StopJob and Session.Host.
var ErrNoController = errors.New("splay: churn scenarios have no controller")

// App is a deployable SPLAY application written against the SDK: Run
// executes the application's main logic inside a capability-scoped Env
// and returns when the application terminates or is killed. The same
// implementation runs unmodified under the deterministic simulation
// runtime and live on real networks.
type App interface {
	Run(env *Env) error
}

// AppFunc adapts a function to App.
type AppFunc func(env *Env) error

// Run implements App.
func (f AppFunc) Run(env *Env) error { return f(env) }

// Factory builds an application from JSON job parameters (the arguments a
// SPLAY job descriptor passes to the deployed script). Factories must
// tolerate nil params: daemons probe them with nil at registration time
// to validate the application before reserving resources.
type Factory func(params []byte) (App, error)

// Env is the capability-scoped execution environment of one application
// instance: cooperative tasks and timers, job information, logging,
// metric instruments, and — capability-gated — the sandboxed socket layer
// and virtual filesystem. It is a view of the engine's AppContext, which
// holds what the host granted the instance (core.Grant), so a protocol
// library built on AppContext() lives under the same restrictions.
type Env struct {
	ctx   *core.AppContext
	caps  Cap
	fsLim sandbox.FSLimits
	fs    *sandbox.FS
}

// EnvConfig tunes NewEnv for hosts that instantiate applications outside
// a Scenario (daemons embed equivalents in their job plumbing).
type EnvConfig struct {
	// Caps is the capability grant; zero means AllCaps.
	Caps Cap
	// Net adds sandbox socket limits on top of whatever the hosting
	// daemon already enforces (limits compose; they never weaken).
	Net NetLimits
	// FS bounds the instance's virtual filesystem.
	FS FSLimits
}

// NewEnv wraps an engine context in a capability-scoped environment,
// restricting the context's node in place (cfg.Net, a withheld CapNet).
// Most applications never call this: daemons and Scenario deployments
// build the Env; NewEnv is the bridge for static instantiation (tests,
// hand-built simulations).
func NewEnv(ctx *core.AppContext, cfg EnvConfig) *Env {
	ctx.Grant(cfg.grant())
	return cfg.view(ctx)
}

// grant is the engine-level share of the config: what binds the context.
func (cfg EnvConfig) grant() core.Grant {
	if cfg.Caps != 0 && cfg.Caps&CapNet == 0 {
		return core.Grant{NoNet: &CapabilityError{Cap: CapNet}}
	}
	return core.Grant{Net: cfg.Net}
}

// view is the Env over a context the config's grant was applied to.
func (cfg EnvConfig) view(ctx *core.AppContext) *Env {
	caps := cfg.Caps
	if caps == 0 {
		caps = AllCaps
	}
	return &Env{ctx: ctx, caps: caps, fsLim: cfg.FS}
}

// AppContext returns the engine context underneath the Env: the bridge
// for protocol libraries (chord, pastry, …) that are written against the
// engine. It is always available and grants nothing extra: its node, RPC
// clients and reporting are the ones the host restricted.
func (e *Env) AppContext() *core.AppContext { return e.ctx }

// Job describes this instance's deployment: its own address (job.me),
// the controller-chosen bootstrap list (job.nodes) and its 1-based rank
// in the deployment sequence (job.position).
func (e *Env) Job() JobInfo { return e.ctx.Job }

// Now returns the current (virtual or real) time.
func (e *Env) Now() time.Time { return e.ctx.Now() }

// Sleep parks the calling task for d.
func (e *Env) Sleep(d time.Duration) { e.ctx.Sleep(d) }

// Rand returns the runtime's random source (deterministic in simulation).
func (e *Env) Rand() *rand.Rand { return e.ctx.Rand() }

// Go starts fn as a task of this instance (the paper's events.thread).
func (e *Env) Go(fn func()) { e.ctx.Go(fn) }

// After schedules fn once after d; it is canceled automatically when the
// instance is killed.
func (e *Env) After(d time.Duration, fn func()) (cancel func()) { return e.ctx.After(d, fn) }

// Periodic runs fn every interval until stopped or the instance is
// killed (the paper's events.periodic).
func (e *Env) Periodic(interval time.Duration, fn func()) (stop func()) {
	return e.ctx.Periodic(interval, fn)
}

// NewLock returns a cooperative lock bound to the instance's runtime.
func (e *Env) NewLock() *Lock { return e.ctx.NewLock() }

// Killed reports whether the instance has been stopped.
func (e *Env) Killed() bool { return e.ctx.Killed() }

// OnKill registers fn to run when the instance is killed (periodics
// canceled, sockets closed). Applications use it to deregister from
// shared state under churn.
func (e *Env) OnKill(fn func()) { e.ctx.OnKill(fn) }

// RunUntilKilled parks the main task while background tasks work: the
// idiomatic tail of a long-running application's Run.
func (e *Env) RunUntilKilled() { e.ctx.RunUntilKilled() }

// Log returns the instance's logger (never nil).
func (e *Env) Log() Logger { return e.ctx.Log }

// Logf logs one line through the instance's logger.
func (e *Env) Logf(format string, args ...any) { e.ctx.Log.Printf(format, args...) }

// Dial opens a stream to a peer through the sandboxed socket layer.
func (e *Env) Dial(to Addr, timeout time.Duration) (Conn, error) {
	c, err := e.ctx.Node().Dial(to, timeout)
	if err != nil {
		return nil, err
	}
	e.ctx.Track(c)
	return c, nil
}

// Listen binds a stream listener; port 0 asks for an ephemeral port.
func (e *Env) Listen(port int) (Listener, error) {
	l, err := e.ctx.Node().Listen(port)
	if err != nil {
		return nil, err
	}
	e.ctx.Track(l)
	return l, nil
}

// ListenPacket binds a datagram socket.
func (e *Env) ListenPacket(port int) (PacketConn, error) {
	p, err := e.ctx.Node().ListenPacket(port)
	if err != nil {
		return nil, err
	}
	e.ctx.Track(p)
	return p, nil
}

// Node exposes the instance's (sandboxed) network stack for libraries
// that manage their own sockets.
func (e *Env) Node() (transport.Node, error) {
	if e.caps&CapNet == 0 {
		return nil, &CapabilityError{Cap: CapNet}
	}
	return e.ctx.Node(), nil
}

// NewRPCServer returns an RPC server bound to this instance.
func (e *Env) NewRPCServer() (*RPCServer, error) {
	if e.caps&CapNet == 0 {
		return nil, &CapabilityError{Cap: CapNet}
	}
	return rpc.NewServer(e.ctx), nil
}

// NewRPCClient returns an RPC client bound to this instance. Under a
// scenario with a non-empty fault plan every client of the instance
// carries the plan's message filter (drop/delay by method); this one also
// paces redials to dead peers with jittered exponential backoff. Outside
// fault plans it is the bare zero-overhead client.
func (e *Env) NewRPCClient() (*RPCClient, error) {
	if e.caps&CapNet == 0 {
		return nil, &CapabilityError{Cap: CapNet}
	}
	cl := rpc.NewClient(e.ctx)
	if cl.Fault != nil {
		cl.SetRedialBackoff(faults.DefaultBackoff())
	}
	return cl, nil
}

// FS returns the instance's private virtual filesystem, created on first
// use with the spec's limits. Path names are opaque keys in the
// instance's own namespace; the host filesystem is unreachable.
func (e *Env) FS() (*FS, error) {
	if e.caps&CapFS == 0 {
		return nil, &CapabilityError{Cap: CapFS}
	}
	if e.fs == nil {
		e.fs = sandbox.NewFS(e.fsLim)
	}
	return e.fs, nil
}

// Metrics returns the instance's metric registry, created on first use
// (core.AppContext.Metrics).
func (e *Env) Metrics() *MetricsRegistry { return e.ctx.Metrics() }

// StartReporting streams the registry to the host's aggregator until the
// instance is killed (core.AppContext.StartReporting). It fails with
// ErrNoCollector when the host collects no metrics, and requires CapNet:
// the stream is dialed through the instance's own sandboxed stack.
func (e *Env) StartReporting() error { return e.ctx.StartReporting() }
