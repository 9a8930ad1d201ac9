package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	k.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	k.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if k.Since() != 30*time.Millisecond {
		t.Fatalf("clock = %s, want 30ms", k.Since())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.AfterFunc(time.Second, func() { fired = true })
	tm.Stop()
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Stop after fire is a no-op.
	tm2 := k.AfterFunc(time.Second, func() { fired = true })
	k.Run()
	tm2.Stop()
	if !fired {
		t.Fatal("event did not fire")
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke time.Duration
	k.Go(func() {
		k.Sleep(5 * time.Second)
		woke = k.Since()
	})
	k.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %s, want 5s", woke)
	}
}

func TestTasksInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		k := NewKernel()
		var got []int
		for i := 0; i < 5; i++ {
			i := i
			k.Go(func() {
				for j := 0; j < 3; j++ {
					k.Sleep(time.Duration(i+1) * time.Millisecond)
					got = append(got, i*10+j)
				}
			})
		}
		k.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("wrong event counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
}

func TestWaiterWakeOnce(t *testing.T) {
	k := NewKernel()
	var got any
	w := k.NewWaiter()
	k.Go(func() { got = w.Wait() })
	k.AfterFunc(time.Second, func() {
		if !w.Wake("first") {
			t.Error("first wake rejected")
		}
		if w.Wake("second") {
			t.Error("second wake accepted")
		}
	})
	k.Run()
	if got != "first" {
		t.Fatalf("got %v, want first", got)
	}
}

func TestWaiterTimeout(t *testing.T) {
	k := NewKernel()
	var got any
	var at time.Duration
	k.Go(func() {
		w := k.NewWaiter()
		w.WakeAfter(2*time.Second, "timeout")
		got = w.Wait()
		at = k.Since()
	})
	k.Run()
	if got != "timeout" || at != 2*time.Second {
		t.Fatalf("got %v at %s, want timeout at 2s", got, at)
	}
}

func TestWaiterWakeCancelsTimeout(t *testing.T) {
	k := NewKernel()
	var got []any
	w := k.NewWaiter()
	k.Go(func() { got = append(got, w.Wait()) })
	k.Go(func() {
		w.WakeAfter(time.Second, "timeout")
		k.Sleep(100 * time.Millisecond)
		w.Wake("value")
	})
	k.Run()
	if len(got) != 1 || got[0] != "value" {
		t.Fatalf("got %v, want [value]", got)
	}
	if k.Since() != time.Second {
		// The canceled timer is lazily discarded; clock still passes 1s only
		// if other events exist. Since the timer was canceled, final time is
		// 100ms... unless heap held it. Canceled events do not fire but do
		// not advance the clock either.
	}
}

func TestWakeBeforeWaitDoesNotDeadlock(t *testing.T) {
	// A timeout may fire while the owner task is blocked elsewhere (e.g.
	// a bandwidth-limited write); Wait must then return immediately with
	// the stashed value instead of wedging the kernel.
	k := NewKernel()
	var got any
	var at time.Duration
	k.Go(func() {
		w := k.NewWaiter()
		w.WakeAfter(time.Millisecond, "timeout")
		k.Sleep(time.Second) // blocked past the timeout
		got = w.Wait()
		at = k.Since()
	})
	k.Run()
	if got != "timeout" {
		t.Fatalf("got %v, want timeout", got)
	}
	if at != time.Second {
		t.Fatalf("resumed at %s, want 1s (no extra parking)", at)
	}
	// Direct Wake before Wait behaves the same.
	var got2 any
	k.Go(func() {
		w := k.NewWaiter()
		w.Wake("early")
		if w.Wake("second") {
			t.Error("second wake accepted")
		}
		got2 = w.Wait()
	})
	k.Run()
	if got2 != "early" {
		t.Fatalf("got2 = %v", got2)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.AfterFunc(time.Second, func() { fired = append(fired, 1) })
	k.AfterFunc(3*time.Second, func() { fired = append(fired, 3) })
	k.RunUntil(Epoch.Add(2 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired %v, want [1]", fired)
	}
	if k.Since() != 2*time.Second {
		t.Fatalf("clock %s, want 2s", k.Since())
	}
	k.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
}

func TestRunFor(t *testing.T) {
	k := NewKernel()
	n := 0
	var tm Timer
	var tick func()
	tick = func() {
		n++
		tm = k.AfterFunc(time.Second, tick)
	}
	tm = k.AfterFunc(time.Second, tick)
	k.RunFor(10 * time.Second)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	tm.Stop()
	k.Run()
	if n != 10 {
		t.Fatalf("ticks after cancel = %d, want 10", n)
	}
}

func TestHalt(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := 0; i < 100; i++ {
		k.AfterFunc(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 10 {
				k.Halt()
			}
		})
	}
	k.Run()
	if n != 10 {
		t.Fatalf("executed %d events, want 10", n)
	}
	k.Run() // resumes after halt
	if n != 100 {
		t.Fatalf("executed %d events total, want 100", n)
	}
}

func TestGoAfter(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.GoAfter(7*time.Second, func() { at = k.Since() })
	k.Run()
	if at != 7*time.Second {
		t.Fatalf("task ran at %s, want 7s", at)
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	depth := 0
	var spawn func(d int)
	spawn = func(d int) {
		if d > depth {
			depth = d
		}
		if d < 20 {
			k.Go(func() { spawn(d + 1) })
		}
	}
	k.Go(func() { spawn(0) })
	k.Run()
	if depth != 20 {
		t.Fatalf("depth = %d, want 20", depth)
	}
	if k.Tasks() != 0 {
		t.Fatalf("live tasks = %d, want 0", k.Tasks())
	}
}

// TestTaskPanicReachesDriver: a panic inside a task unwinds through Run on
// the goroutine driving the kernel, which can recover the original value —
// it does not kill the process from a goroutine the driver cannot reach.
func TestTaskPanicReachesDriver(t *testing.T) {
	k := NewKernel()
	boom := &struct{ why string }{"boom"}
	k.Go(func() {
		k.Sleep(time.Millisecond)
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != boom {
		t.Fatalf("driver recovered %v, want the task's own panic value", got)
	}
	if k.current != nil {
		t.Fatal("kernel still believes a task is executing after its panic unwound")
	}
	// The run loop is intact: other work still runs.
	ran := false
	k.Go(func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("kernel unusable after a recovered task panic")
	}
}

// TestTaskGoexitEndsDriver: runtime.Goexit inside a task — what t.Fatal
// does — ends the goroutine driving Run, running its deferred calls, instead
// of leaving it blocked on a task that will never hand the processor back.
func TestTaskGoexitEndsDriver(t *testing.T) {
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		k := NewKernel()
		k.Go(func() {
			k.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		k.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("driver goroutine still blocked in Run after a task called Goexit")
	}
	if returned {
		t.Fatal("Run returned normally although a task called Goexit")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock never goes backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var times []time.Duration
		for _, d := range delays {
			k.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				times = append(times, k.Since())
			})
		}
		k.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sleeping tasks always wake exactly delay later, regardless of
// how many other tasks run.
func TestQuickSleepAccuracy(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		tasks := int(n%32) + 1
		ok := true
		for i := 0; i < tasks; i++ {
			start := time.Duration(rng.Intn(1000)) * time.Millisecond
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			k.GoAfter(start, func() {
				before := k.Since()
				k.Sleep(d)
				if k.Since()-before != d {
					ok = false
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelEvents(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.AfterFunc(time.Millisecond, tick)
		}
	}
	b.ResetTimer()
	k.AfterFunc(time.Millisecond, tick)
	k.Run()
}

// BenchmarkKernelFarTimers schedules past the wheel horizon so every event
// takes the overflow-heap path and cascades back into the ring.
func BenchmarkKernelFarTimers(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.AfterFunc(2*time.Second, tick)
		}
	}
	b.ResetTimer()
	k.AfterFunc(2*time.Second, tick)
	k.Run()
}

func BenchmarkKernelTaskSwitch(b *testing.B) {
	k := NewKernel()
	k.Go(func() {
		for i := 0; i < b.N; i++ {
			k.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}
