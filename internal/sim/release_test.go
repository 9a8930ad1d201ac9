package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The release rule: at every epoch boundary a kernel hands back exactly
// what sat unused for the whole epoch — a free list's low-water mark, a
// queue slice's capacity far above its high-water length. A burst's surplus
// goes; a load that recurs every epoch keeps its working set and allocates
// nothing; and no event moves.

const (
	epoch       = time.Duration(1) << epochBits
	burstEvents = 10000 // same-instant events
	burstTasks  = 5000  // tasks, each parked on a waiter for burstPark
	burstTimers = 2000  // far timers, cancelled as they are armed
	burstPark   = time.Millisecond
	burstFar    = time.Second // past the ring's horizon: the overflow heap
)

// burstLoad is one burst's worth of work on a kernel, built once so that
// firing it again allocates nothing of its own.
type burstLoad struct {
	noop   func()
	parker func()
	fire   func()
	fired  int
}

func newBurstLoad(k *Kernel) *burstLoad {
	b := &burstLoad{}
	b.noop = func() { b.fired++ }
	b.parker = func() {
		w := k.NewWaiter()
		w.WakeAfter(burstPark, nil)
		w.Wait()
	}
	b.fire = func() {
		for i := 0; i < burstEvents; i++ {
			k.AfterFunc(0, b.noop)
		}
		for i := 0; i < burstTasks; i++ {
			k.Go(b.parker)
		}
		for i := 0; i < burstTimers; i++ {
			k.AfterFunc(burstFar, b.noop).Stop()
		}
	}
	return b
}

// tickEvery keeps a steady background load on k: one event every d until
// *stop is set, so epochs pass with a non-empty queue.
func tickEvery(k *Kernel, d time.Duration, stop *bool) {
	var tick func()
	tick = func() {
		if !*stop {
			k.AfterFunc(d, tick)
		}
	}
	k.AfterFunc(d, tick)
}

// held reads what k holds for reuse through the counters Stats reports.
func held(k *Kernel) ParStats {
	var st ParStats
	k.addHeld(&st)
	return st
}

// Bounds on what a kernel under only the 1 ms background tick may still
// hold after two quiet epochs: no idle coroutine, a handful of pooled
// objects, and ring buckets and an overflow heap each of at most the slack
// Trim leaves.
const (
	quietPooled = 16
	quietSlots  = (wheelSlots + 1) * trimSlack
)

// checkBurstGrew fails unless st shows the burst's working set: the bounds
// below would prove nothing if the burst never grew the pools.
func checkBurstGrew(t *testing.T, st ParStats, parts int) {
	t.Helper()
	if st.IdleTasks < parts*burstTasks || st.FreeWaiters < parts*burstTasks ||
		st.FreeEvents < parts*burstEvents || st.QueueSlots < parts*burstEvents {
		t.Fatalf("after the burst the kernel holds %d idle tasks, %d free events, %d free waiters, %d queue slots: the burst did not grow the pools",
			st.IdleTasks, st.FreeEvents, st.FreeWaiters, st.QueueSlots)
	}
}

// checkQuiet fails unless st and the goroutine count are back under the
// quiet bounds; slots bounds the queue slots.
func checkQuiet(t *testing.T, st ParStats, slots, goroutines, before int) {
	t.Helper()
	t.Logf("after two quiet epochs: %d idle tasks, %d free events, %d free waiters, %d queue slots, %d goroutines (%d before the burst)",
		st.IdleTasks, st.FreeEvents, st.FreeWaiters, st.QueueSlots, goroutines, before)
	if st.IdleTasks != 0 || st.FreeEvents > quietPooled || st.FreeWaiters > quietPooled || st.QueueSlots > slots {
		t.Errorf("the burst's surplus stayed: %d idle tasks (want 0), %d free events and %d free waiters (want ≤ %d), %d queue slots (want ≤ %d)",
			st.IdleTasks, st.FreeEvents, st.FreeWaiters, quietPooled, st.QueueSlots, slots)
	}
	if goroutines > before {
		t.Errorf("%d goroutines after the quiet epochs, %d before the burst: idle coroutines outlived the release", goroutines, before)
	}
}

// TestBurstIsReleased: a burst of same-instant events, parked tasks and
// cancelled far timers grows every pool and the queue's slices; two quiet
// epochs later, with the queue never empty, the kernel holds what the
// background tick needs and no idle coroutine.
func TestBurstIsReleased(t *testing.T) {
	k := NewKernel()
	stop := false
	tickEvery(k, time.Millisecond, &stop)
	k.RunFor(epoch)
	before := runtime.NumGoroutine()
	b := newBurstLoad(k)
	k.AfterFunc(0, b.fire)
	k.RunFor(10 * time.Millisecond)
	if b.fired != burstEvents {
		t.Fatalf("%d burst events fired, want %d", b.fired, burstEvents)
	}
	checkBurstGrew(t, held(k), 1)
	k.RunFor(3 * epoch)
	checkQuiet(t, held(k), quietSlots, runtime.NumGoroutine(), before)
	stop = true
	k.Run()
}

// recurringBurst returns a kernel under the background tick that fires
// the burst at the same phase of every epoch, one epoch's run, and a stop
// that lets the kernel drain, so its idle coroutines end with the test.
func recurringBurst() (k *Kernel, epochRun, stop func()) {
	k = NewKernel()
	stopped := false
	tickEvery(k, time.Millisecond, &stopped)
	b := newBurstLoad(k)
	var again func()
	again = func() {
		b.fire()
		if !stopped {
			k.AfterFunc(epoch, again)
		}
	}
	k.AfterFunc(epoch/3, again)
	return k, func() { k.RunFor(epoch) }, func() { stopped = true; k.Run() }
}

// TestRecurringBurstAllocatesNothing: a burst of the same size every
// epoch is a steady load. Once the first epoch has grown the working set,
// no release takes any of it back, so every later epoch allocates nothing.
func TestRecurringBurstAllocatesNothing(t *testing.T) {
	k, epochRun, stop := recurringBurst()
	defer stop()
	epochRun()
	first := held(k)
	if allocs := testing.AllocsPerRun(4, epochRun); allocs != 0 {
		t.Fatalf("an epoch with the recurring burst allocates %.0f times after the first, want 0", allocs)
	}
	if st := held(k); st.IdleTasks != first.IdleTasks || st.QueueSlots != first.QueueSlots {
		t.Fatalf("the working set moved: %d idle tasks and %d queue slots after the first epoch, %d and %d later",
			first.IdleTasks, first.QueueSlots, st.IdleTasks, st.QueueSlots)
	}
}

// BenchmarkKernelRecurringBurst is TestRecurringBurstAllocatesNothing as a
// gate: one op is one epoch with one burst; CI pins 0 allocs/op, so the
// release rule never turns into churn.
func BenchmarkKernelRecurringBurst(b *testing.B) {
	_, epochRun, stop := recurringBurst()
	defer stop()
	epochRun()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epochRun()
	}
}

// TestParKernelReleasesBurst is TestBurstIsReleased on two partitions run
// by two workers, plus a cross-partition burst through the outbox and the
// merge scratch: each partition releases its own pools on its own worker,
// the coordinator the cross buffers, and everything returns under the
// same bounds. Run with -race.
func TestParKernelReleasesBurst(t *testing.T) {
	pk := NewParKernel(2, 2, time.Millisecond)
	k0, k1 := pk.Sub(0), pk.Sub(1)
	stop := false
	tickEvery(k0, time.Millisecond, &stop)
	tickEvery(k1, time.Millisecond, &stop)
	pk.RunFor(epoch)
	before := runtime.NumGoroutine()
	b0, b1 := newBurstLoad(k0), newBurstLoad(k1)
	crossed := 0
	cross := func() { crossed++ }
	k0.AfterFunc(0, func() {
		b0.fire()
		for i := 0; i < burstEvents; i++ {
			pk.PostBarrier(0, 1, cross)
		}
	})
	k1.AfterFunc(0, b1.fire)
	pk.RunFor(10 * time.Millisecond)
	if b0.fired != burstEvents || b1.fired != burstEvents || crossed != burstEvents {
		t.Fatalf("fired %d and %d burst events and %d cross events, want %d each", b0.fired, b1.fired, crossed, burstEvents)
	}
	checkBurstGrew(t, pk.Stats(), 2)
	if c := cap(pk.out[0].evs) + cap(pk.in[1].evs); c < 2*burstEvents {
		t.Fatalf("the cross buffers hold %d slots after a %d-event cross burst", c, burstEvents)
	}
	pk.RunFor(3 * epoch)
	// Two wheels, two outboxes and two inboxes.
	checkQuiet(t, pk.Stats(), 2*quietSlots+4*trimSlack, runtime.NumGoroutine(), before)
	// The release stopped every burst coroutine; the high-water mark stays.
	if peak := pk.Stats().PeakCoroutines; peak < 2*burstTasks || peak > 2*burstTasks+2 {
		t.Errorf("peak coroutines %d, want the two bursts' %d parked tasks (+1 per partition)", peak, 2*burstTasks)
	}
	stop = true
	pk.Run()
}

// releaseTrace runs a random mix of sleeps, waiter wakes and timeouts,
// bursts of tasks and far timers for three epochs and returns the firing
// order, as TestOverflowSweepInvisible's sweepTrace does. With release
// false the kernel never reaches an epoch boundary, so nothing is ever
// handed back.
func releaseTrace(seed int64, release bool) ([]string, uint64) {
	k := NewKernel()
	if !release {
		k.releaseNS = math.MaxInt64
	}
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var waiters []*Waiter
	for id := 0; id < 40; id++ {
		id := id
		k.Go(func() {
			for k.Since() < 3*epoch {
				trace = append(trace, time.Duration(k.Since()).String()+" "+string(rune('A'+id)))
				switch rng.Intn(8) {
				case 0: // a burst of tasks, each parked for a while
					for j := rng.Intn(200); j > 0; j-- {
						k.Go(func() { k.Sleep(time.Duration(rng.Int63n(int64(time.Second)))) })
					}
				case 1: // a far timer, sometimes cancelled
					tm := k.AfterFunc(time.Duration(rng.Int63n(int64(3*time.Second))), func() { trace = append(trace, "far") })
					if rng.Intn(2) == 0 {
						tm.Stop()
					}
				case 2: // wait with a timeout, maybe woken by a peer first
					w := k.NewWaiter()
					w.WakeAfter(time.Duration(rng.Int63n(int64(50*time.Millisecond))), "timeout")
					waiters = append(waiters, w)
					v := w.Wait()
					waiters = slices.DeleteFunc(waiters, func(x *Waiter) bool { return x == w })
					trace = append(trace, v.(string))
				case 3:
					if len(waiters) > 0 {
						waiters[rng.Intn(len(waiters))].Wake("woken")
					}
				}
				k.Sleep(time.Duration(rng.Int63n(int64(time.Second))))
			}
		})
	}
	k.Run()
	return trace, k.Events()
}

// TestReleaseIsInvisible: releasing at every epoch boundary, or never,
// fires the same events at the same instants in the same order.
func TestReleaseIsInvisible(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		released, n := releaseTrace(seed, true)
		kept, m := releaseTrace(seed, false)
		if n != m || !slices.Equal(released, kept) {
			t.Fatalf("seed %d: %d events (%d firings) with releases, %d (%d) without", seed, n, len(released), m, len(kept))
		}
	}
}
