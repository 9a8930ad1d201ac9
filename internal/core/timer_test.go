package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeriodicStopUnderLiveRuntime stops a ticker where a hand-written
// periodic races: stop lands from several goroutines while ticks fire on
// timer goroutines, and a stop just after a tick must not miss the
// re-armed timer. Run with -race.
func TestPeriodicStopUnderLiveRuntime(t *testing.T) {
	t.Parallel()
	var fires atomic.Int64
	tk := StartTicker(NewLiveRuntime(1), time.Millisecond, func() { fires.Add(1) })
	time.Sleep(20 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Stop()
		}()
	}
	wg.Wait()
	if fires.Load() == 0 {
		t.Fatal("ticker never fired")
	}
	// After Stop has returned, at most one in-flight fire may still land;
	// the count must then stay frozen — a missed cancel keeps ticking.
	time.Sleep(5 * time.Millisecond)
	frozen := fires.Load()
	time.Sleep(20 * time.Millisecond)
	if got := fires.Load(); got != frozen {
		t.Fatalf("ticker kept firing after Stop: %d -> %d", frozen, got)
	}
}

// TestPeriodicStopStress churns many short-lived tickers with concurrent
// stops; the race detector is the assertion.
func TestPeriodicStopStress(t *testing.T) {
	t.Parallel()
	rt := NewLiveRuntime(2)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := StartTicker(rt, 100*time.Microsecond, func() {})
			time.Sleep(time.Millisecond)
			tk.Stop()
			tk.Stop() // Stop must be idempotent
		}()
	}
	wg.Wait()
}

// TestPeriodicTickAllocatesNothing pins the fixed-rate periodic's steady
// state in simulation: one tick spawns the task and re-arms the one timer
// without a heap allocation.
func TestPeriodicTickAllocatesNothing(t *testing.T) {
	k, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	n := 0
	ctx.Periodic(time.Second, func() { n++ })
	// Warm the pools and every timer-wheel bucket a 1 s period lands in:
	// a bucket's first event grows its slice, which is the kernel's cost,
	// not the periodic's.
	k.RunFor(time.Hour)
	allocs := testing.AllocsPerRun(100, func() { k.RunFor(time.Second) })
	if allocs != 0 {
		t.Fatalf("a simulated Periodic tick allocates %.2f, want 0", allocs)
	}
	if want := 3600 + 101; n != want {
		t.Fatalf("periodic ran %d times in %d s, want %d", n, want, want)
	}
}

// TestKillRacesLiveAfters kills instances while their one-shots fire on
// timer goroutines and while their handles are stopped from others: a fire
// or Stop that lands after Kill took the list must not touch it. A panic
// on a timer goroutine takes the test binary down. Run with -race.
func TestKillRacesLiveAfters(t *testing.T) {
	t.Parallel()
	rt := NewLiveRuntime(2)
	for round := 0; round < 50; round++ {
		ctx := NewAppContext(rt, nil, JobInfo{}, nil)
		timers := make([]Timer, 64)
		for i := range timers {
			timers[i] = ctx.After(time.Duration(i%4)*50*time.Microsecond, func() {})
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tm := range timers {
				tm.Stop()
			}
		}()
		time.Sleep(50 * time.Microsecond)
		ctx.Kill()
		wg.Wait()
		if n := len(ctx.pending); n != 0 {
			t.Fatalf("%d kill-list entries after Kill, want 0", n)
		}
	}
	time.Sleep(5 * time.Millisecond) // let fires that lost the race land
}

// TestFiredAftersLeaveTheKillList checks that Kill's list holds only
// pending one-shots: a thousand fired Afters leave nothing behind, a
// stopped one leaves with its Stop, and Kill still cancels every pending
// one — canceled, not fired as a no-op, so the clock does not move to
// their deadlines.
func TestFiredAftersLeaveTheKillList(t *testing.T) {
	k, rt := newSim(t)
	ctx := NewAppContext(rt, nil, JobInfo{}, nil)
	fired := 0
	for i := 0; i < 1000; i++ {
		ctx.After(time.Duration(i%7)*time.Millisecond, func() { fired++ })
	}
	k.Run()
	if fired != 1000 {
		t.Fatalf("%d of 1000 Afters fired", fired)
	}
	for i := 0; i < 1000; i++ {
		ctx.After(time.Minute, func() {}).Stop() // a timeout canceled by its reply
	}
	if n := len(ctx.pending); n != 0 {
		t.Fatalf("%d kill-list entries retained after every After fired, want 0", n)
	}

	for i := 1; i <= 3; i++ {
		ctx.After(time.Duration(i)*time.Second, func() { fired++ })
	}
	stopped := ctx.After(4*time.Second, func() { fired++ })
	if !stopped.Stop() {
		t.Fatal("Stop on a pending After reported it already fired")
	}
	if stopped.Stop() {
		t.Fatal("a second Stop reported the After still pending")
	}
	ctx.After(0, func() { fired++ })
	k.RunFor(time.Millisecond)
	if n := len(ctx.pending); n != 3 {
		t.Fatalf("%d kill-list entries with three pending Afters, want 3", n)
	}
	at := k.Since()
	ctx.Kill()
	k.Run()
	if fired != 1001 {
		t.Fatalf("fired = %d after Kill, want 1001", fired)
	}
	if k.Since() != at {
		t.Fatalf("clock moved from %s to %s: Kill left an event armed", at, k.Since())
	}
}
