package core

import (
	"cmp"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

// Logger is the minimal logging surface applications see; the logging
// package provides the implementation a session or splayd hands out.
type Logger interface {
	Printf(format string, args ...any)
}

// NopLogger discards everything.
type NopLogger struct{}

// Printf implements Logger.
func (NopLogger) Printf(format string, args ...any) {}

// JobInfo is the deployment information every instance receives, matching
// the paper's job table: the instance's own address (job.me), the
// bootstrap list chosen by the controller (job.nodes, e.g. a single
// rendez-vous node or a random subset) and the instance's 1-based rank in
// the deployment sequence (job.position). Seed, App and Position key the
// instance's random stream (AppContext.Rand).
type JobInfo struct {
	JobID    string           `json:"job_id"`
	App      string           `json:"app,omitempty"`
	Seed     int64            `json:"seed,omitempty"`
	Me       transport.Addr   `json:"me"`
	Nodes    []transport.Addr `json:"nodes"`
	Position int              `json:"position"`
}

// App is a deployable SPLAY application. Run executes the application's
// main logic. An error return ends the instance. A nil return leaves it
// resident: its periodic tasks, timers and tracked sockets keep running
// until Kill, so a long-running application sets them up and returns, and
// holds no task while it waits.
type App interface {
	Run(ctx *AppContext) error
}

// AppFunc adapts a function to the App interface.
type AppFunc func(ctx *AppContext) error

// Run implements App.
func (f AppFunc) Run(ctx *AppContext) error { return f(ctx) }

// AppContext is the sandboxed environment handed to a running instance:
// scheduling, randomness, job information, logging, the node's network
// stack, and what the host granted on top of it (see Grant). It also owns
// the instance's lifecycle — killing the context cancels periodic tasks
// and closes tracked sockets, which is how the daemon (and the churn
// manager) stop instances.
type AppContext struct {
	rt   Runtime
	node transport.Node // as the host restricted it (Grant)

	reg      *metrics.Registry         // lazily created by Metrics
	rng      atomic.Pointer[rand.Rand] // lazily created by Rand
	collect  *Collect                  // nil: StartReporting is ErrNoCollector
	rpcFault func(transport.Addr, string) (bool, time.Duration)

	// Job describes this instance's deployment.
	Job JobInfo
	// Log receives the application's log output.
	Log Logger

	// baton serializes the instance's tasks under LiveRuntime,
	// reproducing the cooperative execution model applications are
	// written against (the paper's coroutine scheduler): at any moment
	// at most one task of the instance runs, and the baton is yielded
	// at every park point — Sleep, waiter Wait, contended Lock, and
	// Blocking I/O sections. Nil under the simulation runtime, which is
	// cooperative by construction. holder records the goroutine that
	// owns the baton, so park points reached from foreign goroutines
	// (a driver thread calling into an instance) neither steal nor
	// corrupt the token — they simply run unserialized, as before.
	baton  chan struct{}
	holder atomic.Uint64

	mu      sync.Mutex
	killed  bool
	pending map[*oneShot]struct{} // After callbacks neither fired nor stopped
	tickers []*Ticker             // Periodic activities
	closers []io.Closer
	parked  []Waiter // tasks in RunUntilKilled
}

// NewAppContext builds a context for one instance. A nil log defaults to
// NopLogger.
func NewAppContext(rt Runtime, node transport.Node, job JobInfo, log Logger) *AppContext {
	if log == nil {
		log = NopLogger{}
	}
	c := &AppContext{rt: rt, node: node, Job: job, Log: log}
	if _, live := rt.(*LiveRuntime); live {
		c.baton = make(chan struct{}, 1)
	}
	return c
}

// gid returns the calling goroutine's id (live park points only; the
// runtime never reuses ids, so holder comparisons cannot alias).
func gid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// acquireBaton takes the instance's execution slot (no-op in simulation).
func (c *AppContext) acquireBaton() {
	if c.baton != nil {
		c.baton <- struct{}{}
		c.holder.Store(gid())
	}
}

// releaseBaton yields the execution slot (no-op in simulation). The
// caller must hold it (task wrappers do by construction).
func (c *AppContext) releaseBaton() {
	if c.baton != nil {
		c.holder.Store(0)
		<-c.baton
	}
}

// yieldBaton releases the execution slot if — and only if — the calling
// goroutine holds it, reporting whether it did. Park points reached from
// foreign goroutines (outside any instance task) are a no-op, preserving
// their pre-baton behavior.
func (c *AppContext) yieldBaton() bool {
	if c.baton == nil || c.holder.Load() != gid() {
		return false
	}
	c.holder.Store(0)
	<-c.baton
	return true
}

// Blocking runs fn with the instance baton released, so a task blocked
// in real I/O (a socket read, an accept) does not starve the instance's
// other tasks. Under the simulation runtime this is a plain call: sim
// blocking parks in virtual time instead.
func (c *AppContext) Blocking(fn func()) {
	held := c.yieldBaton()
	fn()
	if held {
		c.acquireBaton()
	}
}

// batonWaiter yields the instance baton while parked, so the instance's
// other tasks run during the wait.
type batonWaiter struct {
	Waiter
	c *AppContext
}

func (w batonWaiter) Wait() any {
	held := w.c.yieldBaton()
	v := w.Waiter.Wait()
	if held {
		w.c.acquireBaton()
	}
	return v
}

// Runtime returns the context's runtime.
func (c *AppContext) Runtime() Runtime { return c.rt }

// Node returns the instance's network stack.
func (c *AppContext) Node() transport.Node { return c.node }

// Now returns the current time.
func (c *AppContext) Now() time.Time { return c.rt.Now() }

// Sleep parks the calling task, yielding the instance baton.
func (c *AppContext) Sleep(d time.Duration) {
	held := c.yieldBaton()
	c.rt.Sleep(d)
	if held {
		c.acquireBaton()
	}
}

// Rand returns the instance's own stream, keyed by (job seed, or the
// runtime's, app, position) alone — not by who shares its host or
// partition, nor by who drew first. Built on first use; concurrency-safe.
func (c *AppContext) Rand() *rand.Rand {
	if c.rng.Load() == nil {
		c.rng.CompareAndSwap(nil, stream.Rand(cmp.Or(c.Job.Seed, c.rt.Seed()), c.Job.App, uint64(c.Job.Position)))
	}
	return c.rng.Load()
}

// NewWaiter returns a fresh waiter whose Wait yields the instance baton.
func (c *AppContext) NewWaiter() Waiter {
	w := c.rt.NewWaiter()
	if c.baton == nil {
		return w
	}
	return batonWaiter{Waiter: w, c: c}
}

// NewLock returns a cooperative lock bound to the instance: a task
// parked on it yields the instance baton to the lock's owner.
func (c *AppContext) NewLock() *Lock {
	l := NewLock(c.rt)
	l.ctx = c
	return l
}

// Killed reports whether the instance has been stopped.
func (c *AppContext) Killed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// goWrap is the pooled kill-check wrapper Go schedules: one closure per
// pooled object, ever, so spawning a task allocates nothing here. The
// object recycles itself after snapshotting its fields, before running
// fn, so a long-running task never holds it.
type goWrap struct {
	c   *AppContext
	fn  func()
	run func()
}

var goWrapPool sync.Pool

func init() {
	goWrapPool.New = func() any {
		w := &goWrap{}
		w.run = func() { w.exec() }
		return w
	}
}

func (w *goWrap) exec() {
	c, fn := w.c, w.fn
	w.c, w.fn = nil, nil
	goWrapPool.Put(w)
	if c.Killed() {
		return
	}
	c.acquireBaton()
	defer c.releaseBaton()
	fn()
}

// Go starts fn as a task of this instance (the paper's events.thread).
// After Kill, new tasks are silently dropped.
func (c *AppContext) Go(fn func()) {
	if c.Killed() {
		return
	}
	w := goWrapPool.Get().(*goWrap)
	w.c, w.fn = c, fn
	c.rt.Go(w.run)
}

// oneShot is one After callback and the handle Kill stops. It sits in the
// context's pending set only until it fires or is stopped, so the set
// holds exactly what Kill still has to cancel. Kill drops the set whole,
// so a live fire racing it deletes from a nil map: a no-op.
type oneShot struct {
	c  *AppContext
	fn func()
	t  Timer
}

func (o *oneShot) fire() {
	c := o.c
	c.mu.Lock()
	delete(c.pending, o)
	killed := c.killed
	c.mu.Unlock()
	if killed {
		return // a live fire that lost the race with Kill
	}
	c.acquireBaton()
	defer c.releaseBaton()
	o.fn()
}

// stop is the returned handle's Stop: it cancels the timer and unlists it,
// so a timeout canceled on every reply leaves nothing behind for Kill.
func (o *oneShot) stop() bool {
	o.c.mu.Lock()
	delete(o.c.pending, o)
	o.c.mu.Unlock()
	return o.t.Stop()
}

// After schedules fn once after d; it is canceled automatically on Kill.
func (c *AppContext) After(d time.Duration, fn func()) Timer {
	o := &oneShot{c: c, fn: fn}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.t = c.rt.After(d, o.fire) // a live fire waits on c.mu until o is listed
	if !c.killed {
		if c.pending == nil {
			c.pending = map[*oneShot]struct{}{}
		}
		c.pending[o] = struct{}{}
	}
	return Timer{shot: o}
}

// Periodic runs fn every interval until stopped or the instance is killed
// (the paper's events.periodic). fn runs as a task, so it may block. The
// rate is fixed: the next tick is armed as fn's task is spawned (see
// Ticker).
func (c *AppContext) Periodic(interval time.Duration, fn func()) (stop func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return func() {}
	}
	t := StartTicker(c.rt, interval, func() { c.Go(fn) })
	c.tickers = append(c.tickers, t)
	return t.Stop
}

// Track registers a socket or other closer to be closed when the instance
// is killed, and returns it for convenience. The contract: Kill closes
// whatever is still tracked, in registration order; an owner that closes a
// tracked socket itself — a failed connection, a served stream that
// ended — calls Untrack beside that Close. Otherwise
// the entry, and everything the dead socket references, stays pinned for
// the instance's lifetime.
func (c *AppContext) Track(cl io.Closer) io.Closer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		cl.Close()
		return cl
	}
	c.closers = append(c.closers, cl)
	return cl
}

// closerFunc adapts a function to io.Closer for Track.
type closerFunc func()

func (f closerFunc) Close() error { f(); return nil }

// OnKill registers fn to run when the instance is killed, in Track order.
func (c *AppContext) OnKill(fn func()) { c.Track(closerFunc(fn)) }

// Untrack forgets a closer registered with Track without closing it: the
// caller closes it itself. Removal preserves the order of the remaining
// entries, so Kill closes the survivors exactly as it would have. An
// unknown closer, or any call after Kill, is a no-op. cl's dynamic type
// must be comparable (sockets are; a func-typed closer is not). The scan
// runs newest first: what an instance closes itself is most often what it
// opened last.
func (c *AppContext) Untrack(cl io.Closer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.closers) - 1; i >= 0; i-- {
		if c.closers[i] == cl {
			last := len(c.closers) - 1
			copy(c.closers[i:], c.closers[i+1:])
			c.closers[last] = nil
			c.closers = c.closers[:last]
			return
		}
	}
}

// Tracked reports how many closers Kill would close right now. An instance
// that keeps Track's contract holds one per socket it has open, whatever
// it has opened and closed before.
func (c *AppContext) Tracked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.closers)
}

// Kill stops the instance: periodic and delayed tasks are canceled,
// tracked sockets closed, waking any task blocked on them, and tasks in
// RunUntilKilled woken. Kill is idempotent.
func (c *AppContext) Kill() {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	c.killed = true
	pending, tickers, closers, parked := c.pending, c.tickers, c.closers, c.parked
	c.pending, c.tickers, c.closers, c.parked = nil, nil, nil, nil
	c.mu.Unlock()
	for o := range pending {
		o.t.Stop()
	}
	for _, t := range tickers {
		t.Stop()
	}
	for _, cl := range closers {
		cl.Close()
	}
	for _, w := range parked {
		w.Wake(nil)
	}
}

// RunUntilKilled parks the calling task while the instance's background
// tasks work, yielding the instance baton, and returns as Kill wakes it.
// It is for a Run that has work left after Kill; one that has none
// returns nil instead (the instance stays resident, see App) and puts any
// teardown in OnKill.
func (c *AppContext) RunUntilKilled() {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	w := c.NewWaiter()
	c.parked = append(c.parked, w)
	c.mu.Unlock()
	w.Wait()
}

// Instance is a running, resident or ended application instance.
type Instance struct {
	Ctx *AppContext

	mu   sync.Mutex
	done bool
	err  error
}

// StartInstance creates a context and runs app in a new task, mirroring a
// daemon forking a sandboxed process.
func StartInstance(rt Runtime, node transport.Node, job JobInfo, log Logger, app App) *Instance {
	ctx := NewAppContext(rt, node, job, log)
	inst := &Instance{Ctx: ctx}
	rt.Go(func() {
		ctx.acquireBaton()
		err := app.Run(ctx)
		ctx.releaseBaton()
		inst.mu.Lock()
		inst.done, inst.err = true, err
		inst.mu.Unlock()
	})
	return inst
}

// Kill stops the instance.
func (i *Instance) Kill() { i.Ctx.Kill() }

// Done reports whether the instance has ended, and Run's error: Run
// returned an error, or it returned and the instance was killed. A Run
// that returned nil before Kill leaves the instance resident, not done.
func (i *Instance) Done() (bool, error) {
	i.mu.Lock()
	done, err := i.done, i.err
	i.mu.Unlock()
	return done && (err != nil || i.Ctx.Killed()), err
}
