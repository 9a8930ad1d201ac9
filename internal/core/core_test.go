package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

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
	cancel := rt.After(time.Millisecond, func() { close(fired) })
	<-fired
	cancel() // after fire: no-op
	// Rand must be callable concurrently.
	for i := 0; i < 4; i++ {
		go rt.Rand().Intn(100)
	}
	rt.Rand().Intn(100)
}
