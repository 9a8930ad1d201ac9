// Package controller implements splayctl, the trusted entity that
// controls deployment and execution of SPLAY applications (§3.1): it
// tracks daemons through sessions, selects deployment targets by
// responsiveness with superset probing, drives the job state machine
// (idle → selected → running) and manages the blacklist.
//
// The control plane is built to scale to thousands of daemons (the
// paper's §5.2–5.3 evaluation): the daemon registry is sharded
// (registry.go), session monitoring staggers its ping fan-out over
// time-slices instead of bursting the whole population, and Submit
// pipelines its REGISTER/LIST/START rounds with batched frame writes and
// reply callbacks rather than one task per command. The wire protocol
// (internal/ctlproto) and the superset semantics — first-Nodes-acks win,
// stragglers are FREEd — are unchanged from the single-mutex design.
package controller

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/transport"
)

// Instruments is the controller's optional metric set for the
// observability plane. The zero value disables everything; increments
// are pure memory operations, so attaching instruments never perturbs
// schedules.
type Instruments struct {
	Frames        *metrics.Counter // command frames written (FramesSent live)
	Deploys       *metrics.Counter // successful Submits
	DeployFails   *metrics.Counter
	DeployLatency *metrics.Histogram // Submit→running, pow2 ns buckets
	Daemons       *metrics.Gauge     // connected population
}

// NewInstruments registers the controller's canonical series on reg
// ("ctl." prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Frames:        reg.Counter("ctl.frames"),
		Deploys:       reg.Counter("ctl.deploys"),
		DeployFails:   reg.Counter("ctl.deploy_fails"),
		DeployLatency: reg.Histogram("ctl.deploy_latency_ns", metrics.KindHistPow2),
		Daemons:       reg.Gauge("ctl.daemons"),
	}
}

// PortEphemeral asks Start to bind an OS/simnet-assigned port instead of
// a fixed one; Addr reports the port actually bound. The zero Port still
// means "the default 5555" (zero-value Config compatibility).
const PortEphemeral = -1

// Config tunes the controller.
type Config struct {
	// Port accepts daemon connections. PortEphemeral binds an
	// ephemeral port (read it back with Addr).
	Port int
	// DefaultSuperset is the fraction of extra daemons probed per job
	// (the paper settles on 1.25 as the default, §5.6).
	DefaultSuperset float64
	// RegisterTimeout bounds how long selection waits for slow daemons.
	RegisterTimeout time.Duration
	// UnseenAfter expires daemons that stop showing activity (the
	// paper's long-term disconnection threshold, typically one hour).
	UnseenAfter time.Duration
	// PingEvery is the session keep-alive/monitoring period. Each daemon
	// is pinged once per period; the fan-out is staggered over
	// pingSlices time-slices so the load on the controller and the
	// network is spread instead of bursting every period.
	PingEvery time.Duration
	// Blacklist is the initial set of forbidden address patterns; the
	// controller's own host is always appended so applications cannot
	// actively connect to it.
	Blacklist []string
	// DeployRetries is how many re-placement rounds Submit runs when
	// daemons fail or vanish mid-deployment: each round registers fresh
	// candidates for the lost slots and replays LIST/START for them. 0
	// means the default (2); negative disables re-placement entirely.
	DeployRetries int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Port:            5555,
		DefaultSuperset: 1.25,
		RegisterTimeout: 30 * time.Second,
		UnseenAfter:     time.Hour,
		PingEvery:       30 * time.Second,
		DeployRetries:   2,
	}
}

// JobState is the §3.1 state machine.
type JobState int

// Job states.
const (
	JobIdle JobState = iota
	JobSelected
	JobRunning
	JobDone
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobIdle:
		return "idle"
	case JobSelected:
		return "selected"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "failed"
	}
}

// JobSpec is a submission: deploy N instances of a registered app.
type JobSpec struct {
	App      string
	Params   []byte
	Nodes    int
	Superset float64 // 0 uses the controller default
	// FullList ships the whole deployment list as job.nodes instead of a
	// single rendez-vous node (the controller chooses "a single
	// rendez-vous node or a random subset, depending on the
	// application", §3.1).
	FullList bool
}

// JobStatus reports a job's progress.
type JobStatus struct {
	ID        string
	State     JobState
	Deployed  []transport.Addr
	Err       string
	StartedAt time.Time
}

// replyFn receives a daemon's answer to one command frame. It is invoked
// exactly once — with the answer, or with an error if the daemon was
// gone, the write failed, the connection dropped, or the reply deadline
// expired — from the session's frame sink or the monitor, possibly inside
// a kernel event callback, so it must not block; spawn via the runtime for
// I/O.
type replyFn func(ans ctlproto.Msg, err error)

// pendingReply is one in-flight command awaiting its answer.
type pendingReply struct {
	fn       replyFn
	deadline time.Time
}

// daemonSession is the controller's view of one connected daemon, and the
// sink of the frame reader that feeds it the daemon's answers.
type daemonSession struct {
	c     *Controller
	name  string
	hash  uint32 // nameHash(name): shard (and thereby ping-slice) assignment
	conn  transport.Conn
	enc   *llenc.Writer
	wlock *core.Lock
	fr    llenc.FrameReader
	m     ctlproto.Msg // OnFrame's decode target: answers go to p.fn by value

	mu       sync.Mutex // guards the fields below under LiveRuntime
	lastSeen time.Time
	rtt      time.Duration // last measured responsiveness
	nextSeq  uint64
	pending  map[uint64]pendingReply
	gone     bool
}

// drop removes a pending reply without invoking its callback (the caller
// already has its answer, e.g. from its own timeout).
func (d *daemonSession) drop(seq uint64) {
	d.mu.Lock()
	delete(d.pending, seq)
	d.mu.Unlock()
}

// Controller is a running splayctl instance.
type Controller struct {
	rt   core.Runtime
	node transport.Node
	cfg  Config

	reg       *registry    // sharded daemon sessions
	framesOut atomic.Int64 // command/answer frames written, for load reporting
	ins       Instruments

	mu        sync.Mutex // guards jobs/blacklist/stops under LiveRuntime
	ln        transport.Listener
	jobs      map[string]*JobStatus
	blacklist []string
	jobSeq    int
	stops     []func()

	monMu    sync.Mutex
	monSlice int
}

// New creates a controller on the given runtime and network stack.
func New(rt core.Runtime, node transport.Node, cfg Config) *Controller {
	if cfg.Port == 0 {
		cfg.Port = 5555
	}
	if cfg.DefaultSuperset <= 1 {
		cfg.DefaultSuperset = 1.25
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 30 * time.Second
	}
	if cfg.UnseenAfter <= 0 {
		cfg.UnseenAfter = time.Hour
	}
	if cfg.PingEvery <= 0 {
		cfg.PingEvery = 30 * time.Second
	}
	if cfg.DeployRetries == 0 {
		cfg.DeployRetries = 2
	}
	// Clone before appending: sharing the caller's backing array would
	// let the append clobber elements the caller still owns.
	cfg.Blacklist = append(append([]string(nil), cfg.Blacklist...), node.Host())
	return &Controller{
		rt: rt, node: node, cfg: cfg,
		reg:  newRegistry(),
		jobs: make(map[string]*JobStatus),
	}
}

// Start listens for daemons and begins session monitoring.
func (c *Controller) Start() error {
	port := c.cfg.Port
	if port == PortEphemeral {
		port = 0
	}
	ln, err := c.node.Listen(port)
	if err != nil {
		return fmt.Errorf("controller: listen: %w", err)
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.rt.Go(func() {
		transport.Serve(ln, nil, func(conn transport.Conn) {
			c.rt.Go(func() { c.serveDaemon(conn) })
		})
	})
	// The unseen process: expire daemons after long-term disconnection;
	// the monitor ping doubles as the session activity signal. Each tick
	// serves one time-slice of the population, so every daemon is pinged
	// once per PingEvery without a population-wide burst.
	every := c.cfg.PingEvery / pingSlices
	if every <= 0 {
		every = time.Millisecond
	}
	stopMon := c.periodic(every, c.monitorTick)
	c.mu.Lock()
	c.stops = append(c.stops, stopMon)
	c.mu.Unlock()
	return nil
}

// periodic is a minimal runtime-periodic helper for controller loops. It
// is safe under LiveRuntime: the stop flag and the re-armed timer are
// guarded, so a stop() racing a tick can neither be missed by the next
// re-arm nor leave a live timer behind.
func (c *Controller) periodic(every time.Duration, fn func()) (stop func()) {
	var mu sync.Mutex
	stopped := false
	var cancel func()
	var tick func()
	tick = func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		cancel = c.rt.After(every, func() {
			mu.Lock()
			if stopped {
				mu.Unlock()
				return
			}
			mu.Unlock()
			c.rt.Go(fn)
			tick()
		})
	}
	tick()
	return func() {
		mu.Lock()
		stopped = true
		cc := cancel
		mu.Unlock()
		if cc != nil {
			cc()
		}
	}
}

// Stop closes the controller.
func (c *Controller) Stop() {
	c.mu.Lock()
	stops := c.stops
	c.stops = nil
	ln := c.ln
	c.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	if ln != nil {
		ln.Close()
	}
	for _, d := range c.reg.snapshot() {
		d.conn.Close()
	}
}

// SetInstruments attaches instruments. Call it before Start.
func (c *Controller) SetInstruments(ins Instruments) { c.ins = ins }

// Addr returns the address daemons connect to. Only valid after Start;
// the port is the one actually bound, which matters under PortEphemeral.
func (c *Controller) Addr() transport.Addr {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	if ln == nil {
		return transport.Addr{Host: c.node.Host(), Port: c.cfg.Port}
	}
	a := ln.Addr()
	a.Host = c.node.Host()
	return a
}

// Daemons returns the connected daemon count.
func (c *Controller) Daemons() int { return c.reg.count() }

// FramesSent reports the total command frames the controller has written,
// a direct measure of control-plane load (§5.3).
func (c *Controller) FramesSent() int64 { return c.framesOut.Load() }

// SetBlacklist replaces the blacklist and pushes the update to every
// connected daemon (piggybacked in its own message here).
func (c *Controller) SetBlacklist(patterns []string) {
	c.mu.Lock()
	c.blacklist = append(append([]string(nil), patterns...), c.node.Host())
	blk := append([]string(nil), c.blacklist...)
	c.mu.Unlock()
	c.fanout(c.reg.snapshot(), c.cfg.RegisterTimeout,
		func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TBlacklist, Hosts: blk} },
		func(int, *daemonSession, ctlproto.Msg, error) {})
}

// serveDaemon runs one daemon connection's handshake on its own task —
// hello and welcome are blocking exchanges, and llenc.Reader takes exactly
// the hello frame off the stream — and hands the steady state to the
// session's frame reader.
func (c *Controller) serveDaemon(conn transport.Conn) {
	var hello ctlproto.Msg
	if err := llenc.NewReader(conn).Decode(&hello); err != nil || hello.Type != ctlproto.THello || hello.Name == "" {
		conn.Close()
		return
	}
	d := &daemonSession{
		c:        c,
		name:     hello.Name,
		hash:     nameHash(hello.Name),
		conn:     conn,
		enc:      llenc.NewWriter(conn),
		wlock:    core.NewLock(c.rt),
		lastSeen: c.rt.Now(),
		pending:  make(map[uint64]pendingReply),
	}
	// Gauge tracking rides atomic deltas, not Set-after-read: a Set from
	// a racing connect/disconnect could latch a stale population.
	if old := c.reg.put(d); old != nil {
		old.mu.Lock()
		old.gone = true
		old.mu.Unlock()
		old.conn.Close()
	} else {
		c.ins.Daemons.Add(1)
	}
	c.mu.Lock()
	// A registering daemon clears its own stale blacklist entry: a host
	// partitioned by a fault drill that reconnects is placeable again
	// immediately, without waiting for an operator heal.
	cleared := false
	kept := c.blacklist[:0]
	for _, pat := range c.blacklist {
		if pat == d.name {
			cleared = true
			continue
		}
		kept = append(kept, pat)
	}
	c.blacklist = kept
	blk := append(append([]string(nil), c.cfg.Blacklist...), c.blacklist...)
	c.mu.Unlock()
	c.send(d, &ctlproto.Msg{Type: ctlproto.TWelcome, Hosts: blk}) //nolint:errcheck
	if cleared {
		// The fleet learned the old blacklist; push the shrunk one.
		c.fanout(c.reg.snapshot(), c.cfg.RegisterTimeout,
			func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TBlacklist, Hosts: blk} },
			func(int, *daemonSession, ctlproto.Msg, error) {})
	}

	d.fr.Init(conn, d, nil)
	d.fr.Run()
}

// OnFrame delivers one answer to the command that awaits it.
func (d *daemonSession) OnFrame(payload []byte) bool {
	d.m = ctlproto.Msg{}
	if llenc.Unmarshal(payload, &d.m) != nil {
		return false
	}
	d.mu.Lock()
	d.lastSeen = d.c.rt.Now()
	p, ok := d.pending[d.m.Seq]
	if ok {
		delete(d.pending, d.m.Seq)
	}
	d.mu.Unlock()
	if ok {
		var err error
		if d.m.Type == ctlproto.TErr {
			err = fmt.Errorf("controller: daemon %s: %s", d.name, d.m.Err)
		}
		p.fn(d.m, err)
	}
	return true
}

// OnEnd retires the session however it ended — EOF, a frame the decoder
// refused, or the monitor's conn.Close — failing every command still
// awaiting its answer exactly once, in seq order, then closes.
func (d *daemonSession) OnEnd(error) {
	d.mu.Lock()
	d.gone = true
	orphans := popPending(d, nil)
	d.mu.Unlock()
	if d.c.reg.removeIf(d) {
		d.c.ins.Daemons.Add(-1)
	}
	err := fmt.Errorf("controller: daemon %s disconnected", d.name)
	for _, p := range orphans {
		p.fn(ctlproto.Msg{}, err)
	}
	d.conn.Close()
}

// popPending removes and returns pending replies under d.mu, in seq order
// so failure delivery stays deterministic in simulation. A nil filter
// takes everything; otherwise only entries the filter accepts.
func popPending(d *daemonSession, filter func(pendingReply) bool) []pendingReply {
	if len(d.pending) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(d.pending))
	for seq, p := range d.pending {
		if filter == nil || filter(p) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	out := make([]pendingReply, 0, len(seqs))
	for _, seq := range seqs {
		out = append(out, d.pending[seq])
		delete(d.pending, seq)
	}
	return out
}

func (c *Controller) send(d *daemonSession, m *ctlproto.Msg) error {
	d.wlock.Lock()
	defer d.wlock.Unlock()
	c.framesOut.Add(1)
	c.ins.Frames.Inc()
	return d.enc.Encode(m)
}

// enqueue assigns m a sequence number, installs fn as its reply callback
// and writes the frame. On error fn is never invoked.
func (c *Controller) enqueue(d *daemonSession, m *ctlproto.Msg, timeout time.Duration, fn replyFn) error {
	d.mu.Lock()
	if d.gone {
		d.mu.Unlock()
		return fmt.Errorf("controller: daemon %s gone", d.name)
	}
	d.nextSeq++
	m.Seq = d.nextSeq
	d.pending[m.Seq] = pendingReply{fn: fn, deadline: c.rt.Now().Add(timeout)}
	d.mu.Unlock()
	if err := c.send(d, m); err != nil {
		d.drop(m.Seq)
		return err
	}
	return nil
}

// call sends a command and waits for the daemon's answer.
func (c *Controller) call(d *daemonSession, m *ctlproto.Msg, timeout time.Duration) (ctlproto.Msg, error) {
	type callResult struct {
		ans ctlproto.Msg
		err error
	}
	w := c.rt.NewWaiter()
	d.mu.Lock()
	if d.gone {
		d.mu.Unlock()
		return ctlproto.Msg{}, fmt.Errorf("controller: daemon %s gone", d.name)
	}
	d.nextSeq++
	m.Seq = d.nextSeq
	w.WakeAfter(timeout, error(transport.ErrTimeout))
	d.pending[m.Seq] = pendingReply{
		fn:       func(ans ctlproto.Msg, err error) { w.Wake(callResult{ans, err}) },
		deadline: c.rt.Now().Add(timeout),
	}
	d.mu.Unlock()
	if err := c.send(d, m); err != nil {
		d.drop(m.Seq)
		return ctlproto.Msg{}, err
	}
	switch v := w.Wait().(type) {
	case callResult:
		return v.ans, v.err
	case error:
		// Timeout: remove the entry ourselves so the callback can never
		// wake a recycled waiter.
		d.drop(m.Seq)
		return ctlproto.Msg{}, v
	}
	return ctlproto.Msg{}, fmt.Errorf("controller: internal wake type")
}

// writeBatch is how many command frames one writer task ships: the batch
// pipeline's fan-out granularity.
const writeBatch = 128

// fanout ships one command frame to every session in ds. Frames are
// written in batches of writeBatch per writer task — not one task per
// command — and fn is installed as each frame's reply callback; it is
// invoked exactly once per session (answer, or error). makeMsg runs in
// the writer task immediately before its frame is written.
func (c *Controller) fanout(ds []*daemonSession, timeout time.Duration,
	makeMsg func(i int) *ctlproto.Msg,
	fn func(i int, d *daemonSession, ans ctlproto.Msg, err error)) {
	for lo := 0; lo < len(ds); lo += writeBatch {
		hi := lo + writeBatch
		if hi > len(ds) {
			hi = len(ds)
		}
		batch := ds[lo:hi]
		base := lo
		c.rt.Go(func() {
			for j, d := range batch {
				i := base + j
				d := d
				if err := c.enqueue(d, makeMsg(i), timeout, func(ans ctlproto.Msg, err error) {
					fn(i, d, ans, err)
				}); err != nil {
					fn(i, d, ctlproto.Msg{}, err)
				}
			}
		})
	}
}

// monitorTick serves one time-slice of the population: it expires unseen
// daemons, sweeps timed-out pending replies, and pings the slice's live
// daemons in a batch (recording responsiveness when answers arrive).
func (c *Controller) monitorTick() {
	c.monMu.Lock()
	slice := c.monSlice
	c.monSlice = (c.monSlice + 1) % pingSlices
	c.monMu.Unlock()

	now := c.rt.Now()
	due := c.reg.slice(slice)
	live := due[:0]
	for _, d := range due {
		d.mu.Lock()
		stale := now.Sub(d.lastSeen) > c.cfg.UnseenAfter
		if stale {
			d.gone = true
		}
		expired := popPending(d, func(p pendingReply) bool { return now.After(p.deadline) })
		d.mu.Unlock()
		for _, p := range expired {
			p.fn(ctlproto.Msg{}, transport.ErrTimeout)
		}
		if stale {
			// Long-term disconnection: reset the daemon's state.
			d.conn.Close()
			if c.reg.removeIf(d) {
				c.ins.Daemons.Add(-1)
			}
			continue
		}
		live = append(live, d)
	}

	sent := make([]time.Time, len(live))
	c.fanout(live, c.cfg.PingEvery,
		func(i int) *ctlproto.Msg {
			sent[i] = c.rt.Now()
			return &ctlproto.Msg{Type: ctlproto.TPing}
		},
		func(i int, d *daemonSession, _ ctlproto.Msg, err error) {
			if err != nil {
				return
			}
			rtt := c.rt.Now().Sub(sent[i])
			d.mu.Lock()
			d.rtt = rtt
			d.mu.Unlock()
		})
}

// Submit deploys a job: probe a superset of daemons with REGISTER, keep
// the fastest responders, ship the bootstrap LIST and START execution,
// and FREE the supernumeraries (§3.1). It blocks until the job runs or
// fails and returns its status.
//
// The three rounds are pipelined: each round's frames are batch-written
// to the whole target set and the answers converge on a collector, so a
// round costs one round-trip to the slowest relevant daemon instead of
// one task (REGISTER) or one serialized call (LIST/START) per daemon.
func (c *Controller) Submit(spec JobSpec) (*JobStatus, error) {
	start := c.rt.Now()
	job, err := c.submit(spec)
	if err != nil {
		c.ins.DeployFails.Inc()
		return job, err
	}
	c.ins.Deploys.Inc()
	c.ins.DeployLatency.Observe(int64(c.rt.Now().Sub(start)))
	return job, nil
}

// regResult is one daemon's successful REGISTER: the session and the
// port it granted.
type regResult struct {
	d    *daemonSession
	port int
}

// deploySlot is one instance position of a deployment in progress. A nil
// session means the slot lost its daemon and needs re-placement.
type deploySlot struct {
	d       *daemonSession
	port    int
	listed  bool // LIST acked with the current rendez-vous
	started bool // START acked; the instance is running
}

// registerRound REGISTERs desc with the candidate set and returns up to
// want winners in ack order; stragglers and spares are FREEd. The acks
// accumulate under a plain mutex (no yields inside) and a waiter
// unblocks the submitter as soon as enough daemons answered, or at the
// timeout.
func (c *Controller) registerRound(candidates []*daemonSession, desc *ctlproto.Job, want int) []regResult {
	probeN := len(candidates)
	var mu sync.Mutex
	var acks []regResult
	answered := 0
	closed := false
	done := c.rt.NewWaiter()
	done.WakeAfter(c.cfg.RegisterTimeout, nil)
	c.fanout(candidates, c.cfg.RegisterTimeout,
		func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TRegister, Job: desc} },
		func(_ int, d *daemonSession, ans ctlproto.Msg, err error) {
			mu.Lock()
			answered++
			late := closed
			if err == nil && !late {
				acks = append(acks, regResult{d: d, port: ans.Port})
			}
			enough := len(acks) >= want || answered == probeN
			mu.Unlock()
			if late && err == nil {
				// Selection already happened: release the straggler.
				c.rt.Go(func() {
					c.call(d, &ctlproto.Msg{Type: ctlproto.TFree, Job: desc}, c.cfg.RegisterTimeout) //nolint:errcheck
				})
				return
			}
			// Never wake after selection closed: the (pooled) waiter may
			// already be recycled for an unrelated rendezvous.
			if enough && !late {
				done.Wake(nil)
			}
		})
	done.Wait()
	mu.Lock()
	closed = true
	var selected, spare []regResult
	for _, r := range acks {
		if len(selected) < want {
			selected = append(selected, r)
		} else {
			spare = append(spare, r)
		}
	}
	mu.Unlock()
	// Supernumerary daemons are released immediately.
	spareDs := make([]*daemonSession, len(spare))
	for i, r := range spare {
		spareDs[i] = r.d
	}
	c.freeAll(spareDs, desc)
	return selected
}

// submit is Submit's body behind the instrument hooks. Deployment is
// slot-driven: REGISTER fills spec.Nodes slots from a superset probe,
// LIST/START drive each slot to running, and any slot whose daemon
// fails a phase is cleared, FREEd, and re-placed onto a fresh daemon in
// the next round (up to DeployRetries rounds). A deployment that cannot
// fill its slots returns a *DeployError naming every failure instead of
// whichever error arrived first.
//
// On the all-acks path — every probed daemon healthy — round 0 writes
// exactly the frame sequence of the pre-fault-plane controller, in the
// same order, which is what keeps ctlplane/obsplane goldens
// byte-identical.
func (c *Controller) submit(spec JobSpec) (*JobStatus, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("controller: job needs nodes")
	}
	superset := spec.Superset
	if superset <= 1 {
		superset = c.cfg.DefaultSuperset
	}
	c.mu.Lock()
	c.jobSeq++
	job := &JobStatus{ID: fmt.Sprintf("job-%d", c.jobSeq), State: JobIdle}
	c.jobs[job.ID] = job
	c.mu.Unlock()

	// Candidate pool: the superset × request most responsive daemons.
	candidates, have := c.reg.fastest(int(float64(spec.Nodes)*superset), nil)
	if have < spec.Nodes {
		derr := &DeployError{
			Job:     job.ID,
			Missing: spec.Nodes - have,
			Reason:  fmt.Sprintf("need %d daemons, have %d", spec.Nodes, have),
		}
		job.State = JobFailed
		job.Err = derr.Error()
		return job, derr
	}

	desc := &ctlproto.Job{ID: job.ID, App: spec.App, Params: spec.Params}
	// Daemons already probed for this job never get re-probed: a daemon
	// that failed once is not a re-placement target.
	tried := make(map[string]bool, len(candidates))
	for _, d := range candidates {
		tried[d.name] = true
	}
	// REGISTER with the whole superset; the first Nodes acks win.
	winners := c.registerRound(candidates, desc, spec.Nodes)
	slots := make([]deploySlot, spec.Nodes)
	for i := 0; i < len(winners); i++ {
		slots[i] = deploySlot{d: winners[i].d, port: winners[i].port}
	}
	job.State = JobSelected

	var fails []DeployFailure
	retries := c.cfg.DeployRetries
	if retries < 0 {
		retries = 0
	}
	giveUp := func(missing int) (*JobStatus, error) {
		var live []*daemonSession
		for _, s := range slots {
			if s.d != nil {
				live = append(live, s.d)
			}
		}
		c.freeAll(live, desc)
		derr := &DeployError{Job: job.ID, Missing: missing, Failures: fails}
		job.State = JobFailed
		job.Err = derr.Error()
		return job, derr
	}

	for round := 0; ; round++ {
		// Re-place lost slots onto fresh daemons (round 0 starts full
		// unless registration came up short).
		missing := 0
		for _, s := range slots {
			if s.d == nil {
				missing++
			}
		}
		if missing > 0 {
			avail, untried := c.reg.fastest(max(int(float64(missing)*superset), missing), tried)
			if untried >= missing {
				for _, d := range avail {
					tried[d.name] = true
				}
				repl := c.registerRound(avail, desc, missing)
				ri := 0
				for i := range slots {
					if slots[i].d == nil && ri < len(repl) {
						slots[i] = deploySlot{d: repl[ri].d, port: repl[ri].port}
						ri++
						if i == 0 {
							// The rendez-vous node moved: every slot's
							// bootstrap list is stale, so all re-LIST.
							for j := range slots {
								slots[j].listed = false
							}
						}
					}
				}
			}
			missing = 0
			for _, s := range slots {
				if s.d == nil {
					missing++
				}
			}
			if missing > 0 {
				return giveUp(missing)
			}
		}

		// Bootstrap list: the first slot is the rendez-vous.
		addrs := make([]transport.Addr, len(slots))
		for i, s := range slots {
			addrs[i] = transport.Addr{Host: s.d.name, Port: s.port}
		}
		bootstrap := addrs[:1]
		if spec.FullList {
			bootstrap = addrs
		}

		// LIST every slot that needs (re-)listing.
		var listIdx []int
		for i, s := range slots {
			if !s.listed {
				listIdx = append(listIdx, i)
			}
		}
		listDs := make([]*daemonSession, len(listIdx))
		for j, i := range listIdx {
			listDs[j] = slots[i].d
		}
		var freed []*daemonSession
		for j, err := range c.phaseAll(listDs, func(j int) *ctlproto.Msg {
			listJob := *desc
			listJob.Position = listIdx[j] + 1
			listJob.Nodes = bootstrap
			return &ctlproto.Msg{Type: ctlproto.TList, Job: &listJob}
		}) {
			i := listIdx[j]
			if err != nil {
				fails = append(fails, DeployFailure{Daemon: slots[i].d.name, Phase: "list", Err: err.Error()})
				freed = append(freed, slots[i].d)
				slots[i] = deploySlot{}
			} else {
				slots[i].listed = true
			}
		}

		// START every listed slot not yet running.
		var startIdx []int
		for i, s := range slots {
			if s.d != nil && s.listed && !s.started {
				startIdx = append(startIdx, i)
			}
		}
		startDs := make([]*daemonSession, len(startIdx))
		for j, i := range startIdx {
			startDs[j] = slots[i].d
		}
		for j, err := range c.phaseAll(startDs, func(int) *ctlproto.Msg {
			return &ctlproto.Msg{Type: ctlproto.TStart, Job: desc}
		}) {
			i := startIdx[j]
			if err != nil {
				fails = append(fails, DeployFailure{Daemon: slots[i].d.name, Phase: "start", Err: err.Error()})
				freed = append(freed, slots[i].d)
				slots[i] = deploySlot{}
			} else {
				slots[i].started = true
			}
		}
		c.freeAll(freed, desc)

		done := true
		for _, s := range slots {
			if s.d == nil || !s.started {
				done = false
				break
			}
		}
		if done {
			job.State = JobRunning
			job.Deployed = addrs
			job.StartedAt = c.rt.Now()
			return job, nil
		}
		if round >= retries {
			missing := 0
			for _, s := range slots {
				if s.d == nil || !s.started {
					missing++
				}
			}
			return giveUp(missing)
		}
	}
}

// phaseAll ships one command to every session and waits for every
// answer (or the RegisterTimeout), returning one verdict per session:
// nil for an ack, the daemon's error otherwise; unanswered sessions
// report ErrTimeout. Unlike a first-error latch, one failed daemon does
// not hide the others' verdicts — submit's re-placement rounds need each
// one.
func (c *Controller) phaseAll(ds []*daemonSession, makeMsg func(i int) *ctlproto.Msg) []error {
	if len(ds) == 0 {
		return nil
	}
	errs := make([]error, len(ds))
	answered := make([]bool, len(ds))
	var mu sync.Mutex
	remaining := len(ds)
	closed := false
	w := c.rt.NewWaiter()
	w.WakeAfter(c.cfg.RegisterTimeout, error(transport.ErrTimeout))
	c.fanout(ds, c.cfg.RegisterTimeout, makeMsg,
		func(i int, _ *daemonSession, _ ctlproto.Msg, err error) {
			mu.Lock()
			if closed || answered[i] {
				mu.Unlock()
				return
			}
			answered[i] = true
			errs[i] = err
			remaining--
			finished := remaining == 0
			if finished {
				closed = true
			}
			mu.Unlock()
			// closed is set before the wake, so no later callback can
			// touch the (pooled) waiter once Wait has returned.
			if finished {
				w.Wake(nil)
			}
		})
	w.Wait()
	mu.Lock()
	closed = true
	for i := range errs {
		if !answered[i] {
			errs[i] = transport.ErrTimeout
		}
	}
	mu.Unlock()
	return errs
}

// phase ships one command to every session and reports the first
// failure, for callers that need no per-daemon verdicts.
func (c *Controller) phase(ds []*daemonSession, makeMsg func(i int) *ctlproto.Msg) error {
	for _, err := range c.phaseAll(ds, makeMsg) {
		if err != nil {
			return err
		}
	}
	return nil
}

// freeAll releases reservations fire-and-forget: answers are discarded
// and unanswered FREEs are swept by the monitor.
func (c *Controller) freeAll(ds []*daemonSession, desc *ctlproto.Job) {
	if len(ds) == 0 {
		return
	}
	c.fanout(ds, c.cfg.RegisterTimeout,
		func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TFree, Job: desc} },
		func(int, *daemonSession, ctlproto.Msg, error) {})
}

// StopJob terminates a running job everywhere.
func (c *Controller) StopJob(id string) error {
	c.mu.Lock()
	job, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("controller: unknown job %s", id)
	}
	desc := &ctlproto.Job{ID: id}
	var ds []*daemonSession
	for _, addr := range job.Deployed {
		if d, ok := c.reg.get(addr.Host); ok {
			ds = append(ds, d)
		}
	}
	// Best-effort: every daemon gets the STOP frame regardless of
	// individual failures, mirroring the sequential design's semantics.
	c.phase(ds, func(int) *ctlproto.Msg { //nolint:errcheck
		return &ctlproto.Msg{Type: ctlproto.TStop, Job: desc}
	})
	job.State = JobDone
	return nil
}

// DaemonNames returns the names of every connected daemon, in the
// registry's deterministic snapshot order.
func (c *Controller) DaemonNames() []string {
	ds := c.reg.snapshot()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.name
	}
	return names
}

// DropDaemon forcibly closes a daemon's controller session (a fault
// drill: the daemon observes a lost controller and, if configured,
// reconnects with backoff). Reports whether the daemon was connected.
func (c *Controller) DropDaemon(name string) bool {
	d, ok := c.reg.get(name)
	if !ok {
		return false
	}
	d.conn.Close()
	return true
}

// Job returns a job's status.
func (c *Controller) Job(id string) (*JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}
