package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

func newSim(t *testing.T) (*sim.Kernel, *SimRuntime) {
	t.Helper()
	k := sim.NewKernel()
	return k, NewSimRuntime(k, 7)
}

func TestLockMutualExclusion(t *testing.T) {
	k, rt := newSim(t)
	l := NewLock(rt)
	inside := 0
	maxInside := 0
	for i := 0; i < 10; i++ {
		k.Go(func() {
			l.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			rt.Sleep(10 * time.Millisecond) // yield while holding
			inside--
			l.Unlock()
		})
	}
	k.Run()
	if maxInside != 1 {
		t.Fatalf("critical section concurrency = %d, want 1", maxInside)
	}
}

func TestLockFIFO(t *testing.T) {
	k, rt := newSim(t)
	l := NewLock(rt)
	var order []int
	k.Go(func() {
		l.Lock()
		rt.Sleep(100 * time.Millisecond)
		l.Unlock()
	})
	for i := 0; i < 5; i++ {
		i := i
		k.GoAfter(time.Duration(i+1)*time.Millisecond, func() {
			l.Lock()
			order = append(order, i)
			l.Unlock()
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("lock grants out of FIFO order: %v", order)
		}
	}
}

func TestTryLockAndUnlockPanic(t *testing.T) {
	_, rt := newSim(t)
	l := NewLock(rt)
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked lock did not panic")
		}
	}()
	l.Unlock()
}

func TestPeriodicRunsAndStops(t *testing.T) {
	k, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	n := 0
	var stop func()
	k.Go(func() {
		stop = ctx.Periodic(time.Second, func() { n++ })
	})
	k.RunFor(5500 * time.Millisecond)
	if n != 5 {
		t.Fatalf("periodic ran %d times in 5.5s, want 5", n)
	}
	stop()
	k.RunFor(10 * time.Second)
	if n != 5 {
		t.Fatalf("periodic ran after stop: %d", n)
	}
}

func TestPeriodicStopsOnKill(t *testing.T) {
	k, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	n := 0
	k.Go(func() {
		ctx.Periodic(time.Second, func() { n++ })
	})
	k.RunFor(3500 * time.Millisecond)
	ctx.Kill()
	k.RunFor(10 * time.Second)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3 (killed at 3.5s)", n)
	}
	if !ctx.Killed() {
		t.Fatal("ctx not killed")
	}
}

func TestKillClosesTrackedSockets(t *testing.T) {
	k := sim.NewKernel()
	rt := NewSimRuntime(k, 1)
	nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
	ctx := NewAppContext(rt, nw.Node(0), JobInfo{}, nil)
	var acceptErr error
	k.Go(func() {
		l, err := ctx.Node().Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		ctx.Track(l)
		_, acceptErr = l.Accept()
	})
	k.GoAfter(time.Second, func() { ctx.Kill() })
	k.Run()
	if !errors.Is(acceptErr, transport.ErrClosed) {
		t.Fatalf("accept err = %v, want ErrClosed", acceptErr)
	}
}

// recCloser records its Close into a shared log.
type recCloser struct {
	name string
	log  *[]string
}

func (r *recCloser) Close() error {
	*r.log = append(*r.log, r.name)
	return nil
}

// TestUntrack pins Track's contract from the owner's side: what the owner
// closes itself it untracks, Kill closes the survivors in registration
// order, and unknown closers and post-Kill calls are no-ops.
func TestUntrack(t *testing.T) {
	_, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	var log []string
	a, b, c := &recCloser{"a", &log}, &recCloser{"b", &log}, &recCloser{"c", &log}
	ctx.Track(a)
	ctx.Track(b)
	ctx.Track(c)
	ctx.Untrack(b)
	ctx.Untrack(b)                     // already gone
	ctx.Untrack(&recCloser{"x", &log}) // never tracked
	if n := ctx.Tracked(); n != 2 {
		t.Fatalf("%d closers tracked after Untrack, want 2", n)
	}
	ctx.Kill()
	if got := strings.Join(log, ","); got != "a,c" {
		t.Fatalf("Kill closed %q, want a,c (b untouched, order kept)", got)
	}
	ctx.Untrack(a) // after Kill: nothing to forget, nothing closed
	ctx.Untrack(b)
	if got := strings.Join(log, ","); got != "a,c" {
		t.Fatalf("post-Kill Untrack closed something: %q", got)
	}
}

func TestGoAfterKillDropped(t *testing.T) {
	k, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	ran := false
	ctx.Kill()
	k.Go(func() { ctx.Go(func() { ran = true }) })
	k.Run()
	if ran {
		t.Fatal("task ran after kill")
	}
}

func TestInstanceLifecycle(t *testing.T) {
	k, rt := newSim(t)
	var inst *Instance
	k.Go(func() {
		inst = StartInstance(rt, nil, JobInfo{Position: 1}, nil, AppFunc(func(ctx *AppContext) error {
			ctx.Sleep(time.Second)
			return errors.New("finished")
		}))
	})
	k.Run()
	done, err := inst.Done()
	if !done || err == nil || err.Error() != "finished" {
		t.Fatalf("done=%v err=%v", done, err)
	}
}

func TestInstanceKillStopsApp(t *testing.T) {
	k, rt := newSim(t)
	ticks := 0
	var inst *Instance
	k.Go(func() {
		inst = StartInstance(rt, nil, JobInfo{}, nil, AppFunc(func(ctx *AppContext) error {
			ctx.Periodic(time.Second, func() { ticks++ })
			for !ctx.Killed() {
				ctx.Sleep(500 * time.Millisecond)
			}
			return nil
		}))
	})
	k.RunFor(4200 * time.Millisecond)
	inst.Kill()
	k.Run()
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	if done, err := inst.Done(); !done || err != nil {
		t.Fatalf("instance did not exit cleanly: done=%v err=%v", done, err)
	}
}

// A task in RunUntilKilled returns at the instant of Kill, in simulation
// and live, and one that calls it after Kill returns at once.
func TestRunUntilKilledEndsAtKill(t *testing.T) {
	k, rt := newSim(t)
	var insts []*Instance
	k.Go(func() {
		for range 2 {
			insts = append(insts, StartInstance(rt, nil, JobInfo{}, nil, AppFunc(func(ctx *AppContext) error {
				ctx.RunUntilKilled()
				return nil
			})))
		}
	})
	k.RunFor(time.Minute)
	k.Go(insts[0].Kill)
	insts[1].Kill()
	k.RunFor(0)
	for i, inst := range insts {
		if done, err := inst.Done(); !done || err != nil {
			t.Errorf("instance %d: done=%v err=%v one kernel step after Kill", i, done, err)
		}
	}
	if n := k.Tasks(); n != 0 {
		t.Errorf("%d tasks live after Kill", n)
	}

	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	ctx.Kill()
	k.Go(ctx.RunUntilKilled)
	k.RunFor(0)
	if n := k.Tasks(); n != 0 {
		t.Errorf("RunUntilKilled after Kill parked: %d tasks live", n)
	}

	live := StartInstance(NewLiveRuntime(1), nil, JobInfo{}, nil, AppFunc(func(ctx *AppContext) error {
		ctx.RunUntilKilled()
		return nil
	}))
	time.Sleep(10 * time.Millisecond)
	live.Kill()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if done, _ := live.Done(); done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live instance still in RunUntilKilled 1 s after Kill")
		}
	}
}

// TestResidentInstanceEndsAtKill: a Run that starts a Periodic and
// returns nil leaves the instance resident. It keeps ticking, holds no
// task between ticks and is not done; Kill ends it, stops the ticks and
// leaves no task behind.
func TestResidentInstanceEndsAtKill(t *testing.T) {
	k, rt := newSim(t)
	ticks := 0
	var inst *Instance
	k.Go(func() {
		inst = StartInstance(rt, nil, JobInfo{}, nil, AppFunc(func(ctx *AppContext) error {
			ctx.Periodic(time.Second, func() { ticks++ })
			return nil
		}))
	})
	k.RunFor(4500 * time.Millisecond)
	if ticks != 4 {
		t.Errorf("%d ticks in 4.5 s, want 4", ticks)
	}
	if done, err := inst.Done(); done || err != nil {
		t.Errorf("resident instance: done=%v err=%v, want neither", done, err)
	}
	if n := k.Tasks(); n != 0 {
		t.Errorf("resident instance holds %d tasks between ticks, want 0", n)
	}
	inst.Kill()
	k.RunFor(time.Minute)
	if done, err := inst.Done(); !done || err != nil {
		t.Errorf("killed instance: done=%v err=%v, want done", done, err)
	}
	if ticks != 4 {
		t.Errorf("%d ticks after Kill, want 4", ticks)
	}
	if n := k.Tasks(); n != 0 {
		t.Errorf("%d tasks live after Kill", n)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("echo", func(params json.RawMessage) (App, error) {
		return AppFunc(func(*AppContext) error { return nil }), nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := r.New("echo", nil); err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.New("missing", nil); err == nil {
		t.Fatal("unknown app instantiated")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "echo" {
		t.Fatalf("Names = %v", names)
	}
	// A duplicate must be rejected, and must not clobber the original
	// factory: the first registration keeps working afterwards.
	if err := r.Register("echo", nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if app, err := r.New("echo", nil); err != nil || app == nil {
		t.Fatalf("original factory clobbered by rejected duplicate: app=%v err=%v", app, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister duplicate did not panic")
		}
	}()
	r.MustRegister("echo", nil)
}

func TestLiveWaiter(t *testing.T) {
	rt := NewLiveRuntime(1)
	w := rt.NewWaiter()
	go func() {
		time.Sleep(5 * time.Millisecond)
		if !w.Wake(42) {
			t.Error("wake rejected")
		}
		if w.Wake(43) {
			t.Error("second wake accepted")
		}
	}()
	if v := w.Wait(); v != 42 {
		t.Fatalf("got %v", v)
	}

	w2 := rt.NewWaiter()
	w2.WakeAfter(5*time.Millisecond, "timeout")
	if v := w2.Wait(); v != "timeout" {
		t.Fatalf("got %v, want timeout", v)
	}
}

func TestLiveRuntimeBasics(t *testing.T) {
	rt := NewLiveRuntime(1)
	if rt.Now().IsZero() {
		t.Fatal("zero now")
	}
	done := make(chan struct{})
	rt.Go(func() { close(done) })
	<-done
	fired := make(chan struct{})
	tm := rt.After(time.Millisecond, func() { close(fired) })
	<-fired
	if tm.Stop() {
		t.Fatal("Stop after fire reported a pending timer")
	}
	// An instance's stream must be callable concurrently, its first use
	// included.
	ctx := NewAppContext(rt, nil, JobInfo{Position: 1}, nil)
	for i := 0; i < 4; i++ {
		go ctx.Rand().Intn(100)
	}
	ctx.Rand().Intn(100)
}

// countingNode counts the streams dialed through it: attempts, and the
// ones that are open.
type countingNode struct {
	transport.Node
	dials, open *int
}

type countedConn struct {
	transport.Conn
	open *int
}

func (n countingNode) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	*n.dials++
	c, err := n.Node.Dial(to, timeout)
	if err != nil {
		return nil, err
	}
	*n.open++
	return &countedConn{Conn: c, open: n.open}, nil
}

func (c *countedConn) Close() error {
	if c.open != nil {
		*c.open--
		c.open = nil
	}
	return c.Conn.Close()
}

// reportBed is one instance context on host 0 of a two-host network, an
// aggregator on host 1, and the count of streams the context dials.
type reportBed struct {
	k           *sim.Kernel
	nw          *simnet.Network
	agg         *metrics.Aggregator
	ctx         *AppContext
	dials, open int
}

func newReportBed(t *testing.T, rtt time.Duration) *reportBed {
	t.Helper()
	b := &reportBed{k: sim.NewKernel()}
	b.nw = simnet.New(b.k, simnet.Symmetric{RTT: rtt}, 2, 1)
	agg, err := metrics.NewAggregator(b.nw.Node(1), 7000, b.k.Go)
	if err != nil {
		t.Fatal(err)
	}
	agg.Authorize("k")
	b.agg = agg
	me := transport.Addr{Host: simnet.HostName(0), Port: 9000}
	b.ctx = NewAppContext(NewSimRuntime(b.k, 1),
		countingNode{Node: b.nw.Node(0), dials: &b.dials, open: &b.open}, JobInfo{Me: me}, nil)
	return b
}

// collect is the grant of the bed's aggregator, flushed every 5 s.
func (b *reportBed) collect() *Collect {
	return &Collect{Addr: b.agg.Addr(), Key: "k", Every: 5 * time.Second}
}

// report starts reporting a counter that ticks once a second.
func (b *reportBed) report(t *testing.T) *metrics.Counter {
	t.Helper()
	ticks := b.ctx.Metrics().Counter("ticks")
	b.ctx.Periodic(time.Second, ticks.Inc)
	b.k.Go(func() {
		if err := b.ctx.StartReporting(); err != nil {
			t.Errorf("StartReporting: %v", err)
		}
	})
	return ticks
}

// killed kills the context and checks that nothing of it stays open.
func (b *reportBed) killed(t *testing.T) {
	t.Helper()
	b.ctx.Kill()
	b.k.RunFor(time.Second)
	if b.ctx.Tracked() != 0 || b.open != 0 {
		t.Fatalf("after Kill: %d tracked, %d streams open", b.ctx.Tracked(), b.open)
	}
}

// TestGrantReporting pins the context's observation plane: nothing is
// collected, or even allocated, until the host grants a target and the
// application asks; then one stream carries the registry to the
// aggregator, a cut stream is redialed once the network heals, and Kill
// closes it.
func TestGrantReporting(t *testing.T) {
	b := newReportBed(t, time.Millisecond)
	ctx, k, agg := b.ctx, b.k, b.agg

	if err := ctx.StartReporting(); !errors.Is(err, ErrNoCollector) {
		t.Fatalf("StartReporting without a collect target: err = %v, want ErrNoCollector", err)
	}
	if ctx.reg != nil {
		t.Fatal("a context nobody asked for metrics holds a registry")
	}

	ctx.Grant(Grant{Collect: b.collect()})
	base := ctx.Tracked()
	ticks := b.report(t)
	k.RunFor(11 * time.Second)
	if got := agg.CounterTotal("ticks"); got == 0 || ctx.Tracked() != base+1 || b.dials != 1 || b.open != 1 {
		t.Fatalf("after two periods: ticks = %d at the aggregator, %d tracked (base %d), %d streams dialed, %d open",
			got, ctx.Tracked(), base, b.dials, b.open)
	}

	// A partition resets the stream; after the heal a failed flush
	// redials and the increments made meanwhile arrive.
	k.Go(func() { b.nw.Partition(0, []bool{false, true}) })
	k.RunFor(20 * time.Second)
	cut := agg.CounterTotal("ticks")
	k.Go(func() { b.nw.HealPartition(0) })
	k.RunFor(3 * time.Minute)
	if got := agg.CounterTotal("ticks"); got <= cut || got < ticks.Total()-5 {
		t.Fatalf("after the heal: ticks = %d at the aggregator (%d at the cut, %d counted)", got, cut, ticks.Total())
	}
	if ctx.Tracked() != base+1 || b.open != 1 {
		t.Fatalf("redialing left %d tracked (base %d) and %d streams open, want one stream", ctx.Tracked(), base, b.open)
	}
	b.killed(t)
}

// TestGrantReportingKilledMidRedial pins the other end of the redial: a
// Kill that lands while the redial's handshake is in flight has already
// closed the old stream, so the loop closes the fresh one itself.
func TestGrantReportingKilledMidRedial(t *testing.T) {
	b := newReportBed(t, 100*time.Millisecond)
	b.ctx.Grant(Grant{Collect: b.collect()})
	b.report(t)
	b.k.RunFor(6 * time.Second)
	b.k.Go(func() { b.nw.Partition(0, []bool{false, true}) })
	b.k.RunFor(2 * time.Second) // the stream is reset, no flush has noticed yet
	b.k.Go(func() { b.nw.HealPartition(0) })
	for i := 0; b.dials == 1 && i < 1000; i++ {
		b.k.RunFor(10 * time.Millisecond)
	}
	if b.dials != 2 || b.open != 0 {
		t.Fatalf("want the failed flush's redial in flight: %d dials, %d streams open", b.dials, b.open)
	}
	b.killed(t)
}

// TestGrantReportingUnderQuota pins the report stream's fate inside the
// instance's own limits: it is charged against the spec's tx quota like
// any other traffic, and once the quota is spent the failed flushes do not
// redial — a fresh stream would be refused the same way, and each redial
// would park the instance's periodic in a dial.
func TestGrantReportingUnderQuota(t *testing.T) {
	b := newReportBed(t, time.Millisecond)
	b.ctx.Grant(Grant{Net: sandbox.NetLimits{MaxTxBytes: 300}, Collect: b.collect()})
	ticks := b.report(t)
	b.k.RunFor(2 * time.Minute)
	got := b.agg.CounterTotal("ticks")
	if got == 0 || got >= ticks.Total()-10 {
		t.Fatalf("ticks = %d at the aggregator of %d counted; want the stream to start and the 300-byte quota to stop it", got, ticks.Total())
	}
	if b.dials != 1 || b.open != 1 {
		t.Fatalf("a stream out of quota was redialed: %d dials, %d open", b.dials, b.open)
	}
	b.killed(t)
}

// TestGrantNode pins the in-place restriction: limits wrap the node the
// context hands out, a withheld network refuses with the host's error,
// and the RPC fault hook is nil until granted.
func TestGrantNode(t *testing.T) {
	k := sim.NewKernel()
	rt := NewSimRuntime(k, 1)
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)

	ctx := NewAppContext(rt, nw.Node(0), JobInfo{}, nil)
	ctx.Grant(Grant{})
	if ctx.Node() != nw.Node(0) || ctx.Tracked() != 0 || ctx.RPCFault() != nil {
		t.Fatal("the zero grant changed the context")
	}
	ctx.Grant(Grant{Net: sandbox.NetLimits{MaxSockets: 1}})
	k.Go(func() {
		if _, err := ctx.Node().Listen(80); err != nil {
			t.Errorf("first socket: %v", err)
		}
		if _, err := ctx.Node().Listen(81); !errors.Is(err, transport.ErrLimit) {
			t.Errorf("second socket: err = %v, want ErrLimit", err)
		}
	})
	k.Run()
	ctx.Kill() // closes the sandbox's sockets: port 80 is free again
	k.Go(func() {
		if _, err := nw.Node(0).Listen(80); err != nil {
			t.Errorf("listen after the instance was killed: %v", err)
		}
	})
	k.Run()

	denied := errors.New("no network for you")
	ctx = NewAppContext(rt, nw.Node(1), JobInfo{}, nil)
	ctx.Grant(Grant{NoNet: denied, RPCFault: func(transport.Addr, string) (bool, time.Duration) { return true, 0 }})
	if _, err := ctx.Node().Listen(80); err != denied {
		t.Errorf("Listen on a withheld network: err = %v", err)
	}
	if _, err := ctx.Node().ListenPacket(80); err != denied {
		t.Errorf("ListenPacket on a withheld network: err = %v", err)
	}
	if _, err := ctx.Node().Dial(transport.Addr{Host: simnet.HostName(0), Port: 80}, time.Second); err != denied {
		t.Errorf("Dial on a withheld network: err = %v", err)
	}
	if ctx.Node().Host() != simnet.HostName(1) || ctx.RPCFault() == nil {
		t.Error("grant lost the host name or the fault hook")
	}
}

// TestGrantTwiceIsOneSandbox: a context two hosts granted limits — the
// daemon its administrator's, then a scenario its AppSpec.Env's — has one
// sandbox enforcing the tighter of each (blacklists united), one kill
// hook and one usage counter, not a second wrapper under the first.
func TestGrantTwiceIsOneSandbox(t *testing.T) {
	k := sim.NewKernel()
	rt := NewSimRuntime(k, 1)
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 3, 1)
	ctx := NewAppContext(rt, nw.Node(0), JobInfo{}, nil)

	ctx.Grant(Grant{Net: sandbox.NetLimits{MaxSockets: 8, MaxTxBytes: 1000, Blacklist: []string{"n2"}}})
	sb, ok := ctx.Node().(*sandbox.Node)
	if !ok {
		t.Fatalf("limits left the node a %T", ctx.Node())
	}
	tracked := ctx.Tracked()
	ctx.Grant(Grant{Net: sandbox.NetLimits{MaxSockets: 2, MaxTxBytes: 5000, MaxRxBytes: 700, Blacklist: []string{"n9"}}})
	if ctx.Node() != transport.Node(sb) || ctx.Tracked() != tracked {
		t.Fatalf("the second grant stacked a sandbox: node %T (same: %v), %d tracked (was %d)",
			ctx.Node(), ctx.Node() == transport.Node(sb), ctx.Tracked(), tracked)
	}

	k.Go(func() {
		l, _ := nw.Node(1).Listen(80)
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	})
	k.GoAfter(time.Second, func() {
		to := transport.Addr{Host: "n1", Port: 80}
		for _, host := range []string{"n2", "n9"} { // blacklists united
			if _, err := ctx.Node().Dial(transport.Addr{Host: host, Port: 80}, 0); !errors.Is(err, transport.ErrBlacklisted) {
				t.Errorf("dial to %s, blacklisted by one of the grants: %v", host, err)
			}
		}
		c, err := ctx.Node().Dial(to, 0)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := c.Write(make([]byte, 600)); err != nil {
			t.Errorf("write within the first grant's quota: %v", err)
		}
		if _, err := c.Write(make([]byte, 600)); !errors.Is(err, transport.ErrLimit) {
			t.Errorf("write past the first grant's 1000-byte quota: %v", err)
		}
		if _, err := ctx.Node().Dial(to, 0); err != nil {
			t.Errorf("second socket: %v", err)
		}
		if _, err := ctx.Node().Dial(to, 0); !errors.Is(err, transport.ErrLimit) {
			t.Errorf("third socket under the second grant's MaxSockets 2: %v", err)
		}
	})
	k.RunFor(time.Minute)
	if tx, _ := sb.Usage(); tx != 600 {
		t.Errorf("tx = %d on the one usage counter, want 600", tx)
	}
	ctx.Kill()
	if sb.OpenSockets() != 0 {
		t.Errorf("%d sockets open after Kill", sb.OpenSockets())
	}
}

// TestKillClosesLeftoverSocketsInOpenOrder: sockets a sandboxed instance
// never Tracked are closed by Kill oldest first, so the peers of a killed
// instance see the same close sequence — the same kernel event order — on
// every run of a seed. (A map held them before: Go's iteration order.)
func TestKillClosesLeftoverSocketsInOpenOrder(t *testing.T) {
	const streams = 50
	run := func() []int {
		k := sim.NewKernel()
		rt := NewSimRuntime(k, 1)
		nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
		var closed []int // accept index of each stream, in the order the peer saw it end
		k.Go(func() {
			l, _ := nw.Node(1).Listen(80)
			for i := 0; ; i++ {
				c, err := l.Accept()
				if err != nil {
					return
				}
				k.Go(func() {
					c.Read(make([]byte, 1)) //nolint:errcheck // blocks until the far end closes
					closed = append(closed, i)
				})
			}
		})
		inst := StartInstance(rt, nw.Node(0), JobInfo{}, nil, Granted(AppFunc(func(ctx *AppContext) error {
			for i := 0; i < streams; i++ {
				if _, err := ctx.Node().Dial(transport.Addr{Host: "n1", Port: 80}, 0); err != nil {
					t.Errorf("dial %d: %v", i, err)
				}
			}
			ctx.RunUntilKilled()
			return nil
		}), Grant{Net: sandbox.NetLimits{MaxSockets: 2 * streams}}))
		k.RunFor(10 * time.Second)
		sb := inst.Ctx.Node().(*sandbox.Node)
		if sb.OpenSockets() != streams {
			t.Fatalf("%d sockets open before the kill, want %d", sb.OpenSockets(), streams)
		}
		k.Go(inst.Kill)
		k.RunFor(10 * time.Second)
		if inst.Ctx.Tracked() != 0 || sb.OpenSockets() != 0 {
			t.Errorf("after Kill: %d tracked, %d sockets open", inst.Ctx.Tracked(), sb.OpenSockets())
		}
		return closed
	}
	first, second := run(), run()
	if len(first) != streams {
		t.Fatalf("the peer saw %d of %d streams end", len(first), streams)
	}
	for i := range first {
		if first[i] != i || second[i] != i {
			t.Fatalf("peer-side close order differs from the open order:\n run 1 %v\n run 2 %v", first, second)
		}
	}
}
