// Package daemon implements splayd, the lightweight process installed on
// every testbed host (§3.1): it connects to the controller over a secure
// link, accepts job reservations within its administrator-configured
// resource restrictions, instantiates applications in sandboxed contexts,
// and stops them on command. The controller may tighten — never weaken —
// the administrator's restrictions.
package daemon

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

// Instruments is the daemon's optional metric set for the observability
// plane. The zero value disables everything; increments are pure memory
// operations, so attaching instruments never perturbs schedules.
type Instruments struct {
	Commands    *metrics.Counter // controller commands handled
	Pings       *metrics.Counter // the PING subset
	JobsStarted *metrics.Counter
	JobsStopped *metrics.Counter
	Jobs        *metrics.Gauge // instances currently running
}

// NewInstruments registers the daemon's canonical series on reg
// ("daemon." prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Commands:    reg.Counter("daemon.commands"),
		Pings:       reg.Counter("daemon.pings"),
		JobsStarted: reg.Counter("daemon.jobs_started"),
		JobsStopped: reg.Counter("daemon.jobs_stopped"),
		Jobs:        reg.Gauge("daemon.jobs"),
	}
}

// noInstruments is the shared disabled set a daemon points at until
// SetInstruments, so no access needs a nil guard. It is never written to.
var noInstruments Instruments

// Config is the daemon's local configuration file equivalent.
type Config struct {
	// Name identifies the daemon (its advertised host name).
	Name string
	// PortLow/PortHigh is the port range granted to applications.
	PortLow, PortHigh int
	// Net is the administrator's network restriction.
	Net sandbox.NetLimits
}

// DefaultConfig fills the port range.
func DefaultConfig(name string) Config {
	return Config{Name: name, PortLow: 20000, PortHigh: 29999}
}

// dialTimeout bounds the controller connection attempt and its welcome.
const dialTimeout = time.Minute

// runningJob is one instantiated application.
type runningJob struct {
	job      *ctlproto.Job
	port     int
	inst     *core.Instance
	starting bool // START in progress (instantiation happens outside the lock)
}

// Daemon is a running splayd.
type Daemon struct {
	rt       core.Runtime
	node     transport.Node
	cfg      Config
	registry *core.Registry
	log      core.Logger
	ins      *Instruments

	// mu guards the session state: under LiveRuntime every controller
	// command is handled on its own goroutine, so jobs, the port
	// allocator, the blacklist and the connection flag are all shared.
	mu        sync.Mutex
	conn      transport.Conn
	blacklist []string
	nextPort  int
	jobs      map[string]*runningJob // made at a REGISTER, dropped as the last job leaves
	connected bool
	closed    bool            // Close was called: no reconnects
	jitter    stream.Source64 // redial jitter: the stream (seed, "daemon", host)
}

// New creates a daemon that instantiates applications from the registry.
func New(rt core.Runtime, node transport.Node, registry *core.Registry, cfg Config, log core.Logger) *Daemon {
	if log == nil {
		log = core.NopLogger{}
	}
	if cfg.PortLow == 0 {
		cfg.PortLow, cfg.PortHigh = 20000, 29999
	}
	d := &Daemon{
		rt: rt, node: node, cfg: cfg, registry: registry, log: log,
		ins:      &noInstruments,
		nextPort: cfg.PortLow,
	}
	d.jitter.Init(rt.Seed(), "daemon", stream.Hash(cfg.Name))
	return d
}

// SetInstruments attaches instruments, shared with whoever else holds
// them. Call it before Connect.
func (d *Daemon) SetInstruments(ins *Instruments) { d.ins = ins }

// Connected reports whether the controller session is up.
func (d *Daemon) Connected() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.connected
}

// Running returns the number of application instances currently running.
func (d *Daemon) Running() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.jobs)
}

// Connect dials the controller, introduces itself, and serves commands
// until the connection drops.
func (d *Daemon) Connect(controller transport.Addr) error {
	conn, err := d.node.Dial(controller, dialTimeout)
	if err != nil {
		return fmt.Errorf("daemon %s: connect: %w", d.cfg.Name, err)
	}
	d.mu.Lock()
	d.conn = conn
	d.mu.Unlock()
	// A refused session must not leak its socket: every failed redial
	// would leave one open, and a session at the controller.
	refuse := func(err error) error {
		conn.Close()
		d.mu.Lock()
		d.conn = nil
		d.mu.Unlock()
		return err
	}
	s := &control{d: d, controller: controller, conn: conn, wlock: core.NewLock(d.rt)}
	s.enc.Reset(conn)
	// The hello's key is "k-" and the name. The controller reads only the
	// name: the key authenticates nothing.
	hello := &ctlproto.Msg{
		Type: ctlproto.THello, Name: d.cfg.Name, Key: "k-" + d.cfg.Name,
		PortLow: d.cfg.PortLow, PortHigh: d.cfg.PortHigh,
	}
	if err := s.enc.Encode(hello); err != nil {
		return refuse(fmt.Errorf("daemon %s: hello: %w", d.cfg.Name, err))
	}
	// The handshake blocks, under a deadline, and llenc.Reader takes the
	// welcome frame alone off the stream; the session's reader has the rest.
	var welcome ctlproto.Msg
	conn.SetReadDeadline(d.rt.Now().Add(dialTimeout)) //nolint:errcheck // without deadlines the wait is unbounded, as before
	if err := llenc.NewReader(conn).Decode(&welcome); err != nil || welcome.Type != ctlproto.TWelcome {
		return refuse(fmt.Errorf("daemon %s: no welcome (%v)", d.cfg.Name, err))
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // as above: nothing was set
	d.mu.Lock()
	d.blacklist = welcome.Hosts
	d.connected = true
	d.mu.Unlock()
	llenc.Go(d.rt.Go, s)
	return nil
}

// control is the daemon's end of one controller session: the sink of the
// frame reader that feeds it commands.
type control struct {
	d          *Daemon
	controller transport.Addr
	conn       transport.Conn
	enc        llenc.Writer
	wlock      *core.Lock
	fr         llenc.FrameReader
}

// Readable continues the session's frame reader (llenc.FrameSink).
func (s *control) Readable() { s.fr.Run(s.conn, s, nil) }

// OnFrame answers one command under its Seq from a task of its own:
// handlers instantiate applications and the answer is a socket write.
func (s *control) OnFrame(payload []byte) bool {
	m := new(ctlproto.Msg) // one per frame: the handler task keeps it
	if llenc.Unmarshal(payload, m) != nil {
		return false
	}
	s.d.rt.Go(func() {
		ans := s.d.handle(m)
		ans.Seq = m.Seq
		s.wlock.Lock()
		s.enc.Encode(ans) //nolint:errcheck
		s.wlock.Unlock()
	})
	return true
}

// OnEnd closes the session's socket, marks it lost and, unless the daemon
// was closed, starts redialing on a task of its own: the redial sleeps and
// a sink may not. Every daemon redials: a fault-free run never loses a
// session before it stops, so the retry sleeps enter no schedule there.
func (s *control) OnEnd(error) {
	s.conn.Close()
	d := s.d
	d.mu.Lock()
	d.connected = false
	closed := d.closed
	d.mu.Unlock()
	if !closed {
		d.rt.Go(func() { d.reconnectLoop(s.controller) })
	}
}

// reconnectLoop redials the controller until success or Close, pacing
// attempts with the default backoff so a daemon population cut off by
// a controller restart or healed partition does not stampede it.
func (d *Daemon) reconnectLoop(controller transport.Addr) {
	d.log.Printf("daemon %s: controller session lost, reconnecting", d.cfg.Name)
	b := faults.DefaultBackoff()
	for attempt := 0; ; attempt++ {
		d.rt.Sleep(b.Delay(attempt, rand.New(&d.jitter)))
		d.mu.Lock()
		closed := d.closed
		d.mu.Unlock()
		if closed {
			return
		}
		if err := d.Connect(controller); err == nil {
			d.log.Printf("daemon %s: reconnected to controller (attempt %d)", d.cfg.Name, attempt+1)
			return
		}
	}
}

// Close drops the controller connection and kills all instances.
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	conn := d.conn
	ids := slices.Collect(maps.Keys(d.jobs))
	d.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, id := range ids {
		d.stopJob(id)
	}
}

func (d *Daemon) handle(m *ctlproto.Msg) *ctlproto.Msg {
	d.ins.Commands.Inc()
	switch m.Type {
	case ctlproto.TRegister, ctlproto.TList, ctlproto.TStart, ctlproto.TFree, ctlproto.TStop:
		// Frames are network input: one without its job member must not
		// nil-deref the process every job runs in.
		if m.Job == nil {
			return &ctlproto.Msg{Type: ctlproto.TErr, Err: "no job"}
		}
	}
	switch m.Type {
	case ctlproto.TPing:
		d.ins.Pings.Inc()
		return &ctlproto.Msg{Type: ctlproto.TAck}
	case ctlproto.TBlacklist:
		d.mu.Lock()
		d.blacklist = m.Hosts
		d.mu.Unlock()
		return &ctlproto.Msg{Type: ctlproto.TAck}
	case ctlproto.TRegister:
		return d.register(m.Job)
	case ctlproto.TList:
		return d.list(m.Job)
	case ctlproto.TStart:
		return d.start(m.Job)
	case ctlproto.TFree, ctlproto.TStop:
		d.stopJob(m.Job.ID)
		return &ctlproto.Msg{Type: ctlproto.TAck}
	default:
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "unknown command " + string(m.Type)}
	}
}

// register reserves a port for the job (the REGISTER answer carries the
// range available to the application; we grant one concrete port).
func (d *Daemon) register(job *ctlproto.Job) *ctlproto.Msg {
	// Validate the app outside the lock: constructors are caller code.
	if _, err := d.registry.New(job.App, nil); err != nil {
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: err.Error()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.jobs[job.ID]; ok {
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "already registered"}
	}
	port, ok := d.grantPort()
	if !ok {
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "no free port in range"}
	}
	if d.jobs == nil {
		d.jobs = make(map[string]*runningJob)
	}
	d.jobs[job.ID] = &runningJob{job: job, port: port}
	return &ctlproto.Msg{Type: ctlproto.TAck, Port: port}
}

// grantPort hands out the next port of the administrator's range that is
// actually bindable, skipping busy ones: several daemons sharing one real
// machine would otherwise grant ports other processes already own. Called
// under d.mu.
func (d *Daemon) grantPort() (int, bool) {
	span := d.cfg.PortHigh - d.cfg.PortLow + 1
	for tries := 0; tries < span; tries++ {
		port := d.nextPort
		d.nextPort++
		if d.nextPort > d.cfg.PortHigh {
			d.nextPort = d.cfg.PortLow
		}
		if d.bindable(port) {
			return port, true
		}
	}
	return 0, false
}

// bindable probes whether port can be bound on the daemon's host: a bind
// and a close on the local stack, or a lookup on a network that can tell
// without binding (the simulated one, where the probe then posts no event
// and allocates nothing).
func (d *Daemon) bindable(port int) bool {
	if n, ok := d.node.(interface{ Bindable(port int) bool }); ok {
		return n.Bindable(port)
	}
	ln, err := d.node.Listen(port)
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// list installs the bootstrap information.
func (d *Daemon) list(job *ctlproto.Job) *ctlproto.Msg {
	d.mu.Lock()
	defer d.mu.Unlock()
	rj, ok := d.jobs[job.ID]
	if !ok {
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "not registered"}
	}
	rj.job = job
	return &ctlproto.Msg{Type: ctlproto.TAck}
}

// start instantiates the application in a sandboxed context.
func (d *Daemon) start(job *ctlproto.Job) *ctlproto.Msg {
	d.mu.Lock()
	rj, ok := d.jobs[job.ID]
	if !ok {
		d.mu.Unlock()
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "not registered"}
	}
	if rj.inst != nil || rj.starting {
		d.mu.Unlock()
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "already running"}
	}
	rj.starting = true
	spec, port := rj.job, rj.port
	blacklist := d.blacklist
	d.mu.Unlock()

	// Instantiation runs unlocked: the constructor is caller code.
	app, err := d.registry.New(spec.App, json.RawMessage(spec.Params))
	if err != nil {
		d.mu.Lock()
		rj.starting = false
		d.mu.Unlock()
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: err.Error()}
	}
	// The administrator's limits plus the controller's blacklist are what
	// this host grants; the context sandboxes the node under them.
	app = core.Granted(app, core.Grant{Net: d.cfg.Net.Tighten(sandbox.NetLimits{Blacklist: blacklist})})
	info := core.JobInfo{
		JobID:    spec.ID,
		App:      spec.App,
		Seed:     spec.Seed,
		Me:       transport.Addr{Host: d.cfg.Name, Port: port},
		Nodes:    spec.Nodes,
		Position: spec.Position,
	}
	d.mu.Lock()
	if d.jobs[spec.ID] != rj {
		// A concurrent STOP/FREE removed the job while we instantiated.
		d.mu.Unlock()
		return &ctlproto.Msg{Type: ctlproto.TErr, Err: "stopped during start"}
	}
	rj.inst = core.StartInstance(d.rt, d.node, info, d.log, app)
	rj.starting = false
	// Gauge update stays under the lock: a Set applied after unlock
	// could race a concurrent stop and publish a stale count.
	d.ins.JobsStarted.Inc()
	d.ins.Jobs.Set(int64(len(d.jobs)))
	d.mu.Unlock()
	d.log.Printf("daemon %s: started %s (%s) on port %d", d.cfg.Name, spec.ID, spec.App, port)
	return &ctlproto.Msg{Type: ctlproto.TAck}
}

func (d *Daemon) stopJob(id string) {
	d.mu.Lock()
	rj, ok := d.jobs[id]
	if ok {
		delete(d.jobs, id)
		if len(d.jobs) == 0 {
			d.jobs = nil // maps never shrink: an idle daemon holds no table
		}
		d.ins.JobsStopped.Inc()
		d.ins.Jobs.Set(int64(len(d.jobs)))
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	if rj.inst != nil {
		rj.inst.Kill()
	}
	d.log.Printf("daemon %s: stopped %s", d.cfg.Name, id)
}
