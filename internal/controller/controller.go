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
	// RegisterTimeout bounds how long each command round waits for slow
	// daemons.
	RegisterTimeout time.Duration
	// Blacklist is the initial set of forbidden address patterns; the
	// controller's own host is always appended so applications cannot
	// actively connect to it.
	Blacklist []string
}

const (
	// defaultSuperset is the fraction of extra daemons probed for a job
	// that names none (the paper settles on 1.25, §5.6).
	defaultSuperset = 1.25
	// unseenAfter expires daemons that stop showing activity (the
	// paper's long-term disconnection threshold).
	unseenAfter = time.Hour
	// pingEvery is the session keep-alive/monitoring period. Each daemon
	// is pinged once per period; the fan-out is staggered over
	// pingSlices time-slices so the load on the controller and the
	// network is spread instead of bursting every period.
	pingEvery = 30 * time.Second
	// deployRetries is how many re-placement rounds Submit runs when
	// daemons fail or vanish mid-deployment: each round registers fresh
	// candidates for the lost slots and replays LIST/START for them.
	deployRetries = 2
)

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Port:            5555,
		RegisterTimeout: 30 * time.Second,
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
	Seed     int64 // keys the instances' random streams (0: the daemon runtime's)
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
	seq      uint64
	fn       replyFn
	deadline time.Time
}

// answers recycles OnFrame's decode targets: an answer reaches its
// callback by value, so its target is free again once the callback
// returns, and no session needs one of its own.
var answers = sync.Pool{New: func() any { return new(ctlproto.Msg) }}

// daemonSession is the controller's view of one connected daemon, and the
// sink of the frame reader that feeds it the daemon's answers.
type daemonSession struct {
	c     *Controller
	name  string
	hash  uint32 // nameHash(name): shard (and thereby ping-slice) assignment
	conn  transport.Conn
	enc   llenc.Writer
	wlock *core.Lock
	fr    llenc.FrameReader

	mu       sync.Mutex // guards the fields below under LiveRuntime
	lastSeen time.Time
	rtt      time.Duration // last measured responsiveness
	nextSeq  uint64
	pending  []pendingReply // in seq order: enqueue appends the next seq
	gone     bool
}

// take removes and returns the pending reply for seq. Callers hold d.mu.
// Answers mostly arrive in seq order, so the scan usually stops at once.
func (d *daemonSession) take(seq uint64) (pendingReply, bool) {
	for i, p := range d.pending {
		if p.seq == seq {
			d.pending = slices.Delete(d.pending, i, i+1) // clears the tail: no callback outlives its entry
			return p, true
		}
	}
	return pendingReply{}, false
}

// drop removes a pending reply without invoking its callback (the caller
// already has its answer, e.g. from its own timeout).
func (d *daemonSession) drop(seq uint64) {
	d.mu.Lock()
	d.take(seq)
	d.mu.Unlock()
}

// expire removes the pending replies whose deadline is before now and
// returns them in seq order; the rest keep theirs. Callers hold d.mu. A
// sweep that expires nothing allocates nothing.
func (d *daemonSession) expire(now time.Time) (out []pendingReply) {
	kept := d.pending[:0]
	for _, p := range d.pending {
		if now.After(p.deadline) {
			out = append(out, p)
		} else {
			kept = append(kept, p)
		}
	}
	clear(d.pending[len(kept):])
	d.pending = kept
	return out
}

// Controller is a running splayctl instance.
type Controller struct {
	rt   core.Runtime
	node transport.Node
	cfg  Config

	reg       *registry    // sharded daemon sessions
	framesOut atomic.Int64 // command/answer frames written, for load reporting
	ins       Instruments

	mu        sync.Mutex // guards jobs/blacklist/mon under LiveRuntime
	ln        transport.Listener
	jobs      map[string]*JobStatus
	blacklist []string
	jobSeq    int
	mon       *core.Ticker // the monitor, one ping slice per tick

	monMu    sync.Mutex
	monSlice int
}

// New creates a controller on the given runtime and network stack.
func New(rt core.Runtime, node transport.Node, cfg Config) *Controller {
	if cfg.Port == 0 {
		cfg.Port = 5555
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 30 * time.Second
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
	// once per pingEvery without a population-wide burst.
	const every = pingEvery / pingSlices
	mon := c.monitorTick // bound once: a tick spawns it without allocating
	t := core.StartTicker(c.rt, every, func() { c.rt.Go(mon) })
	c.mu.Lock()
	c.mon = t
	c.mu.Unlock()
	return nil
}

// Stop closes the controller.
func (c *Controller) Stop() {
	c.mu.Lock()
	mon, ln := c.mon, c.ln
	c.mu.Unlock()
	if mon != nil {
		mon.Stop()
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
	c.pushBlacklist(blk)
}

// pushBlacklist ships hosts as the blacklist to every connected daemon,
// fire-and-forget.
func (c *Controller) pushBlacklist(hosts []string) {
	c.fanout(c.reg.snapshot(), c.cfg.RegisterTimeout,
		func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TBlacklist, Hosts: hosts} },
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
		wlock:    core.NewLock(c.rt),
		lastSeen: c.rt.Now(),
	}
	d.enc.Reset(conn)
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
	n := len(c.blacklist)
	c.blacklist = slices.DeleteFunc(c.blacklist, func(pat string) bool { return pat == d.name })
	cleared := len(c.blacklist) < n
	blk := append(append([]string(nil), c.cfg.Blacklist...), c.blacklist...)
	c.mu.Unlock()
	c.send(d, &ctlproto.Msg{Type: ctlproto.TWelcome, Hosts: blk}) //nolint:errcheck
	if cleared {
		// The fleet learned the old blacklist; push the shrunk one.
		c.pushBlacklist(blk)
	}

	d.Readable()
}

// Readable continues the session's frame reader (llenc.FrameSink).
func (d *daemonSession) Readable() { d.fr.Run(d.conn, d, nil) }

// OnFrame delivers one answer to the command that awaits it.
func (d *daemonSession) OnFrame(payload []byte) bool {
	m := answers.Get().(*ctlproto.Msg)
	defer answers.Put(m)
	*m = ctlproto.Msg{}
	if llenc.Unmarshal(payload, m) != nil {
		return false
	}
	d.mu.Lock()
	d.lastSeen = d.c.rt.Now()
	p, ok := d.take(m.Seq)
	d.mu.Unlock()
	if ok {
		var err error
		if m.Type == ctlproto.TErr {
			err = fmt.Errorf("controller: daemon %s: %s", d.name, m.Err)
		}
		p.fn(*m, err)
	}
	return true
}

// OnEnd retires the session however it ended — EOF, a frame the decoder
// refused, or the monitor's conn.Close — failing every command still
// awaiting its answer exactly once, in seq order, then closes.
func (d *daemonSession) OnEnd(error) {
	d.mu.Lock()
	d.gone = true
	orphans := d.pending
	d.pending = nil
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
	d.pending = append(d.pending, pendingReply{seq: m.Seq, fn: fn, deadline: c.rt.Now().Add(timeout)})
	d.mu.Unlock()
	if err := c.send(d, m); err != nil {
		d.drop(m.Seq)
		return err
	}
	return nil
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
		batch := ds[lo:min(lo+writeBatch, len(ds))]
		c.rt.Go(func() {
			for j, d := range batch {
				i := lo + j
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
		stale := now.Sub(d.lastSeen) > unseenAfter
		if stale {
			d.gone = true
		}
		expired := d.expire(now)
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
	c.fanout(live, pingEvery,
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

// ack is one session's success in a gathered round: the session and the
// port its answer granted (REGISTER's; zero for other commands).
type ack struct {
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

// gather is the controller's one way to wait on the fleet. It writes
// makeMsg's command to every session in ds through fanout and collects
// the answers until want sessions have acked, every session has
// answered, or RegisterTimeout has passed. errs holds one verdict per
// session — nil for an ack, the daemon's error, ErrTimeout for no
// answer — and acks the successes in arrival order. The round then
// closes under the mutex: a success arriving later goes to late (nil
// drops it), and no answer wakes the waiter, pooled in simulation, once
// Wait has returned.
func (c *Controller) gather(ds []*daemonSession, makeMsg func(i int) *ctlproto.Msg, want int,
	late func(d *daemonSession)) (errs []error, acks []ack) {
	if len(ds) == 0 {
		return nil, nil
	}
	errs = make([]error, len(ds))
	for i := range errs {
		errs[i] = transport.ErrTimeout
	}
	acks = make([]ack, 0, len(ds))
	var mu sync.Mutex
	answered, closed := 0, false
	w := c.rt.NewWaiter()
	w.WakeAfter(c.cfg.RegisterTimeout, nil)
	c.fanout(ds, c.cfg.RegisterTimeout, makeMsg,
		func(i int, d *daemonSession, ans ctlproto.Msg, err error) {
			mu.Lock()
			if closed {
				mu.Unlock()
				if err == nil && late != nil {
					late(d)
				}
				return
			}
			answered++
			errs[i] = err
			if err == nil {
				acks = append(acks, ack{d: d, port: ans.Port})
			}
			if len(acks) >= want || answered == len(ds) {
				w.Wake(nil)
			}
			mu.Unlock()
		})
	w.Wait()
	mu.Lock()
	closed = true
	mu.Unlock()
	return errs, acks
}

// registerRound REGISTERs desc with the candidate set and returns the
// first want acks; the spares that acked before selection closed and the
// stragglers that ack after it are FREEd.
func (c *Controller) registerRound(candidates []*daemonSession, desc *ctlproto.Job, want int) []ack {
	_, acks := c.gather(candidates,
		func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TRegister, Job: desc} },
		want, func(d *daemonSession) { c.freeAll([]*daemonSession{d}, desc) })
	if len(acks) <= want {
		return acks
	}
	spares := make([]*daemonSession, len(acks)-want)
	for i, a := range acks[want:] {
		spares[i] = a.d
	}
	c.freeAll(spares, desc)
	return acks[:want]
}

// unfilled counts the slots without a daemon and, with running, those
// not running yet.
func unfilled(slots []deploySlot, running bool) int {
	n := 0
	for _, s := range slots {
		if s.d == nil || running && !s.started {
			n++
		}
	}
	return n
}

// submit is Submit's body behind the instrument hooks. Deployment is
// slot-driven: REGISTER fills spec.Nodes slots from a superset probe,
// LIST/START drive each slot to running, and any slot whose daemon
// fails a phase is cleared, FREEd, and re-placed onto a fresh daemon in
// the next round (up to deployRetries rounds). A deployment that cannot
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
		superset = defaultSuperset
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

	desc := &ctlproto.Job{ID: job.ID, App: spec.App, Params: spec.Params, Seed: spec.Seed}
	// Daemons already probed for this job never get re-probed: a daemon
	// that failed once is not a re-placement target.
	tried := make(map[string]bool, len(candidates))
	for _, d := range candidates {
		tried[d.name] = true
	}
	// REGISTER with the whole superset; the first Nodes acks win.
	slots := make([]deploySlot, spec.Nodes)
	for i, w := range c.registerRound(candidates, desc, spec.Nodes) {
		slots[i] = deploySlot{d: w.d, port: w.port}
	}
	job.State = JobSelected

	var fails []DeployFailure
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
	// slotPhase ships cmd to every slot pick selects and waits for every
	// verdict: an ack marks the slot, a failure is recorded and clears
	// the slot. It returns the cleared slots' daemons, to be FREEd.
	slotPhase := func(name string, pick func(deploySlot) bool, mark func(*deploySlot),
		cmd func(slot int) *ctlproto.Msg) (freed []*daemonSession) {
		var idx []int
		for i, s := range slots {
			if pick(s) {
				idx = append(idx, i)
			}
		}
		ds := make([]*daemonSession, len(idx))
		for j, i := range idx {
			ds[j] = slots[i].d
		}
		for j, err := range c.phaseAll(ds, func(j int) *ctlproto.Msg { return cmd(idx[j]) }) {
			i := idx[j]
			if err != nil {
				fails = append(fails, DeployFailure{Daemon: slots[i].d.name, Phase: name, Err: err.Error()})
				freed = append(freed, slots[i].d)
				slots[i] = deploySlot{}
			} else {
				mark(&slots[i])
			}
		}
		return freed
	}

	for round := 0; ; round++ {
		// Re-place lost slots onto fresh daemons (round 0 starts full
		// unless registration came up short).
		if missing := unfilled(slots, false); missing > 0 {
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
			if missing := unfilled(slots, false); missing > 0 {
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

		// LIST every slot that needs (re-)listing, then START every
		// listed slot not yet running.
		freed := slotPhase("list", func(s deploySlot) bool { return !s.listed },
			func(s *deploySlot) { s.listed = true },
			func(i int) *ctlproto.Msg {
				listJob := *desc
				listJob.Position = i + 1
				listJob.Nodes = bootstrap
				return &ctlproto.Msg{Type: ctlproto.TList, Job: &listJob}
			})
		freed = append(freed, slotPhase("start", func(s deploySlot) bool { return s.listed && !s.started },
			func(s *deploySlot) { s.started = true },
			func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TStart, Job: desc} })...)
		c.freeAll(freed, desc)

		missing := unfilled(slots, true)
		if missing == 0 {
			job.State = JobRunning
			job.Deployed = addrs
			job.StartedAt = c.rt.Now()
			return job, nil
		}
		if round >= deployRetries {
			return giveUp(missing)
		}
	}
}

// phaseAll ships one command to every session and waits for every
// answer (or the RegisterTimeout), returning one verdict per session.
// Unlike a first-error latch, one failed daemon does not hide the
// others' verdicts — submit's re-placement rounds need each one.
func (c *Controller) phaseAll(ds []*daemonSession, makeMsg func(i int) *ctlproto.Msg) []error {
	errs, _ := c.gather(ds, makeMsg, len(ds), nil)
	return errs
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
	c.phaseAll(ds, func(int) *ctlproto.Msg { return &ctlproto.Msg{Type: ctlproto.TStop, Job: desc} })
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
// drill: the daemon observes a lost controller and redials it with
// backoff). Reports whether the daemon was connected.
func (c *Controller) DropDaemon(name string) bool {
	d, ok := c.reg.get(name)
	if !ok {
		return false
	}
	d.conn.Close()
	return true
}
