package sim

import (
	"runtime"
	"testing"
	"time"
)

// Pooling invariants: recycled events must not be cancellable through stale
// handles, recycled waiters must not be wakeable through stale refs, and the
// steady-state hot paths must not allocate.

// TestCancelAfterFireIsIsolated fires an event, lets the pool reuse its
// storage for a second event, then invokes the first event's cancel: the
// second event must still fire.
func TestCancelAfterFireIsIsolated(t *testing.T) {
	k := NewKernel()
	fired := ""
	cancelA := k.After(time.Millisecond, func() { fired += "a" })
	k.Run()
	// Event A's pooled storage is free; B takes it.
	k.AfterFunc(time.Millisecond, func() { fired += "b" })
	cancelA() // must be a no-op, not cancel B
	k.Run()
	if fired != "ab" {
		t.Fatalf("fired %q, want \"ab\" (stale cancel leaked into a recycled event)", fired)
	}
}

// TestTimerStopSemantics pins Stop's report: true only when it prevented a
// pending event, false for fired, double-stopped, and zero timers.
func TestTimerStopSemantics(t *testing.T) {
	k := NewKernel()
	var zero Timer
	if zero.Stop() {
		t.Fatal("zero Timer reported an active stop")
	}
	fired := false
	tm := k.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop of a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	k.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
	tm2 := k.AfterFunc(time.Second, func() {})
	k.Run()
	if tm2.Stop() {
		t.Fatal("Stop after fire reported true")
	}
}

// TestWaiterReuseUnderTimeoutRace checks the race the RPC and dial paths
// hit constantly: a waiter times out, its owner resumes and the waiter is
// recycled, then a late producer tries to wake it through a stale Ref.
// The recycled waiter must be untouched.
func TestWaiterReuseUnderTimeoutRace(t *testing.T) {
	k := NewKernel()
	var stale WaiterRef
	var second any
	k.Go(func() {
		w := k.NewWaiter()
		stale = w.Ref()
		w.WakeAfter(time.Millisecond, "timeout")
		if v := w.Wait(); v != "timeout" {
			t.Errorf("first wait got %v", v)
		}
		// w is recycled now; grab it again for an unrelated rendezvous.
		w2 := k.NewWaiter()
		if stale.Wake("late verdict") {
			t.Error("stale ref woke a recycled waiter")
		}
		w2.WakeAfter(time.Second, "second timeout")
		second = w2.Wait()
	})
	k.Run()
	if second != "second timeout" {
		t.Fatalf("recycled waiter corrupted: got %v", second)
	}
	if k.Since() != time.Millisecond+time.Second {
		t.Fatalf("clock at %v", k.Since())
	}
}

// TestWakeAfterRearmReplacesTimeout arms a timeout twice; only the second
// may fire.
func TestWakeAfterRearmReplacesTimeout(t *testing.T) {
	k := NewKernel()
	var got any
	var at time.Duration
	k.Go(func() {
		w := k.NewWaiter()
		w.WakeAfter(time.Second, "first")
		w.WakeAfter(2*time.Second, "second")
		got = w.Wait()
		at = k.Since()
	})
	k.Run()
	if got != "second" || at != 2*time.Second {
		t.Fatalf("got %v at %v, want second at 2s", got, at)
	}
}

// TestWakeBeforeWaitThenTimeoutStash: a direct Wake races an armed timeout
// before the owner parks; the stash must carry the Wake value and the timer
// must be disarmed.
func TestWakeBeforeWaitThenTimeoutStash(t *testing.T) {
	k := NewKernel()
	var got any
	k.Go(func() {
		w := k.NewWaiter()
		w.WakeAfter(time.Millisecond, "timeout")
		w.Wake("direct")
		k.Sleep(10 * time.Millisecond) // let the (dead) timer window pass
		got = w.Wait()
	})
	k.Run()
	if got != "direct" {
		t.Fatalf("got %v, want direct", got)
	}
}

// TestTaskPoolBounded spawns many sequential tasks and checks the goroutine
// population stays bounded by the pool cap, not the spawn count.
func TestTaskPoolBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	count := 0
	for i := 0; i < 5000; i++ {
		k.GoAfter(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	k.Run()
	if count != 5000 {
		t.Fatalf("ran %d tasks, want 5000", count)
	}
	if k.Tasks() != 0 {
		t.Fatalf("%d live tasks after run", k.Tasks())
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after-before > maxFreeTasks+16 {
		t.Fatalf("goroutines grew from %d to %d; task pool not bounded", before, after)
	}
}

// TestSchedulingIsAllocationFree pins the headline property: steady-state
// AfterFunc scheduling and firing performs zero heap allocations.
func TestSchedulingIsAllocationFree(t *testing.T) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n%1000 != 0 {
			k.AfterFunc(time.Microsecond, tick)
		}
	}
	// Warm the pool.
	k.AfterFunc(0, tick)
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		k.AfterFunc(time.Microsecond, tick)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSleepIsAllocationFree pins the same property for the task-switch path:
// inside a running simulation, sleeping and task switching allocate nothing.
func TestSleepIsAllocationFree(t *testing.T) {
	k := NewKernel()
	var before, after runtime.MemStats
	k.Go(func() {
		for i := 0; i < 1000; i++ { // warm event pool
			k.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < 10000; i++ {
			k.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&after)
	})
	k.Run()
	// Allow a little slack for runtime-internal allocations; 10k sleeps at
	// even one alloc each would be ≥ 10000.
	if d := after.Mallocs - before.Mallocs; d > 100 {
		t.Fatalf("10k sleeps performed %d allocations, want ~0", d)
	}
}

// TestTaskPoolDrainedAtQuiesce: once a run ends with an empty queue, the
// idle pooled coroutines must be gone — stopped synchronously, so the
// goroutine count is back at its baseline the moment Run returns — and
// abandoned kernels don't pin them.
func TestTaskPoolDrainedAtQuiesce(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 200; i++ {
		k.Go(func() { k.Sleep(time.Millisecond) })
	}
	k.Run()
	if k.freeTaskCount != 0 || k.freeTasks != nil {
		t.Fatalf("task pool not drained: %d pooled tasks", k.freeTaskCount)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d; pooled tasks did not retire", before, after)
	}
	// The kernel stays usable after a drain: the pool re-grows on demand.
	ran := false
	k.Go(func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("kernel unusable after task pool drain")
	}
}
