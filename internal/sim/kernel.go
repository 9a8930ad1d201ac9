// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Application code runs
// in cooperative tasks: coroutines that only block through kernel primitives
// (Sleep, Waiter.Wait). The run loop switches into a task and the task
// switches back when it parks or finishes, so at any instant exactly one of
// them executes and simulations are deterministic: the same seed and inputs
// produce the same event order, bit for bit.
//
// This mirrors the SPLAY execution model: Lua coroutines scheduled by a
// single-threaded event loop, where the processor is yielded only at
// blocking points in the base libraries.
//
// The scheduling hot path is allocation-free in steady state: events, tasks
// (with their coroutines) and Waiters are all pooled on free lists, and the
// event queue is a hierarchical timer wheel (see wheel.go and DESIGN.md).
package sim

import (
	"fmt"
	"iter"
	"math"
	"time"
)

// Epoch is the virtual time at which every simulation starts. The concrete
// date is arbitrary; experiments only use durations relative to it.
var Epoch = time.Date(2009, 4, 22, 0, 0, 0, 0, time.UTC)

// maxFreeTasks bounds the task pool: a finished task's coroutine stays
// suspended for reuse up to this limit and exits beyond it, so bursty spawns
// don't pin an unbounded number of idle coroutines to the kernel.
const maxFreeTasks = 512

// task is a pooled cooperative task: one iter.Pull coroutine, reused across
// task spawns so GoAfter and Waiter.Wait never allocate. The run loop enters
// it through next and it hands the processor back through yield — a direct
// switch between the two, with no trip through the Go scheduler.
type task struct {
	k     *Kernel
	fn    func()                  // body to run, set by the kernel before the spawn resume
	v     any                     // resume value, stored by the kernel before next
	next  func() (struct{}, bool) // kernel side: run the task until it parks or finishes
	yield func(struct{}) bool     // task side: park; false once stop was called
	stop  func()                  // kernel side: end a pooled task's coroutine
	link  *task                   // free-list link
}

// run is the coroutine's life: run the spawned body, recycle, wait for the
// next spawn. It returns — ending the coroutine — when the pool is full or
// drainTaskPool stops it.
func (t *task) run(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.fn()
		t.fn = nil
		k := t.k
		k.tasks--
		if k.freeTaskCount >= maxFreeTasks {
			return
		}
		t.link = k.freeTasks
		k.freeTasks = t
		k.freeTaskCount++
		if !yield(struct{}{}) {
			return
		}
	}
}

// Kernel is a discrete-event scheduler. The zero value is not usable; create
// kernels with NewKernel.
//
// All Kernel methods must be called either from inside a task started with Go
// or from event callbacks, with two exceptions: Run/RunUntil/RunFor (the
// driver) and NewKernel. The kernel is deliberately not safe for concurrent
// use from foreign goroutines; tasks and events already execute one at a
// time.
type Kernel struct {
	nowNS   int64 // virtual ns since Epoch
	seq     uint64
	wq      wheel
	current *task  // the task executing right now, nil on the run loop
	tasks   int    // live (started, unfinished) tasks
	events  uint64 // total events executed, for stats
	halted  bool

	freeEvents      *event
	freeEventCount  int
	freeTasks       *task
	freeTaskCount   int
	freeWaiters     *Waiter
	freeWaiterCount int
}

// maxFreeEvents and maxFreeWaiters bound the recycling pools. Startup
// bursts (a whole population joining at once) push the in-flight event
// count far above steady state; an unbounded free list would pin that
// high-water mark for the rest of the run, which at memory-plane scale
// is megabytes per sub-kernel. Excess objects are simply dropped to the
// garbage collector — pool occupancy never affects event order, so
// schedules (and goldens) are unchanged.
const (
	maxFreeEvents  = 2048
	maxFreeWaiters = 1024
)

// NewKernel returns a kernel with its clock set to Epoch.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return Epoch.Add(time.Duration(k.nowNS)) }

// Since returns the virtual duration elapsed since the epoch.
func (k *Kernel) Since() time.Duration { return time.Duration(k.nowNS) }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// Tasks returns the number of live tasks.
func (k *Kernel) Tasks() int { return k.tasks }

// alloc takes an event from the free list, or makes one.
func (k *Kernel) alloc() *event {
	if e := k.freeEvents; e != nil {
		k.freeEvents = e.next
		k.freeEventCount--
		e.next = nil
		return e
	}
	return &event{}
}

// free recycles a fired or canceled event. Bumping gen invalidates every
// outstanding Timer handle to it, so cancel-after-fire is a safe no-op.
func (k *Kernel) free(e *event) {
	e.gen++
	e.kind = 0
	e.canceled = false
	e.fn = nil
	e.task = nil
	e.w = nil
	e.wgen = 0
	e.v = nil
	if k.freeEventCount >= maxFreeEvents {
		return // drop to the GC; see maxFreeEvents
	}
	e.next = k.freeEvents
	k.freeEvents = e
	k.freeEventCount++
}

// push enqueues e at virtual time atNS (clamped to now) and assigns its
// FIFO sequence number.
func (k *Kernel) push(e *event, atNS int64) {
	if atNS < k.nowNS {
		atNS = k.nowNS
	}
	e.atNS = atNS
	e.seq = k.seq
	k.seq++
	if k.wq.push(e) {
		k.sweepOverflow()
	}
}

// Timer is a handle to a scheduled event, returned by the allocation-free
// scheduling entry points. The zero Timer is valid and Stop on it is a
// no-op. Timer values may be copied freely and outlive the event: a
// generation check makes Stop after firing (or after the event's pooled
// storage was reused) a safe no-op.
type Timer struct {
	e   *event
	gen uint64
}

// Stop cancels the pending event and reports whether it was still pending.
// Stopping a fired, already-stopped or zero Timer returns false.
func (t Timer) Stop() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.canceled {
		return false
	}
	t.e.canceled = true
	return true
}

// AfterFunc schedules fn to run once after virtual duration d on the run
// loop. This is the allocation-free fast path: the event comes from the
// kernel's pool and the Timer handle is a plain value.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	e := k.alloc()
	e.kind = evFunc
	e.fn = fn
	k.push(e, k.nowNS+int64(d))
	return Timer{e: e, gen: e.gen}
}

// AtFunc schedules fn to run once at absolute virtual time atNS (ns since
// Epoch, clamped to now), like AfterFunc and like ParKernel.Post.
func (k *Kernel) AtFunc(atNS int64, fn func()) Timer {
	e := k.alloc()
	e.kind = evFunc
	e.fn = fn
	k.push(e, atNS)
	return Timer{e: e, gen: e.gen}
}

// Go starts fn as a new cooperative task at the current virtual time.
// The task may block only through kernel primitives.
func (k *Kernel) Go(fn func()) {
	k.GoAfter(0, fn)
}

// GoAfter starts fn as a new task after virtual duration d. The task runs
// on a pooled coroutine; spawning is allocation-free in steady state.
func (k *Kernel) GoAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.tasks++
	e := k.alloc()
	e.kind = evSpawn
	e.fn = fn
	k.push(e, k.nowNS+int64(d))
}

// allocTask takes a suspended task coroutine from the pool, or creates one.
func (k *Kernel) allocTask() *task {
	if t := k.freeTasks; t != nil {
		k.freeTasks = t.link
		k.freeTaskCount--
		t.link = nil
		return t
	}
	t := &task{k: k}
	t.next, t.stop = iter.Pull(t.run)
	return t
}

// resume hands the processor to t, delivering v, and returns when t parks
// again or finishes. It must only be called from the kernel run loop. A
// panic or runtime.Goexit inside the task surfaces here, on the goroutine
// driving the run loop (iter.Pull re-raises it from next); run clears
// current on that path, so no defer sits on every switch.
func (k *Kernel) resume(t *task, v any) {
	k.current = t
	t.v = v
	t.next()
	k.current = nil
}

// parkCurrent parks the calling task and returns the value the kernel
// delivers when it is resumed.
func (k *Kernel) parkCurrent() any {
	t := k.current
	if t == nil {
		panic("sim: blocking kernel primitive called outside a task")
	}
	t.yield(struct{}{}) // always true: only pooled tasks are ever stopped
	v := t.v
	t.v = nil
	return v
}

// Sleep parks the calling task for virtual duration d.
func (k *Kernel) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t := k.current
	if t == nil {
		panic("sim: Sleep called outside a task")
	}
	e := k.alloc()
	e.kind = evSleep
	e.task = t
	k.push(e, k.nowNS+int64(d))
	k.parkCurrent()
}

// Run executes events until the queue is empty or Halt is called. It returns
// the number of events executed during this call.
func (k *Kernel) Run() uint64 {
	return k.run(0, false)
}

// RunUntil executes events with firing times ≤ t, then sets the clock to t.
func (k *Kernel) RunUntil(t time.Time) uint64 {
	return k.run(int64(t.Sub(Epoch)), true)
}

// RunFor advances the simulation by virtual duration d.
func (k *Kernel) RunFor(d time.Duration) uint64 {
	return k.run(k.nowNS+int64(d), true)
}

// Halt stops the run loop after the current event completes. It may be
// called from tasks or event callbacks.
func (k *Kernel) Halt() { k.halted = true }

// setNow advances the clock and keeps the timer wheel's cursor in step.
func (k *Kernel) setNow(ns int64) {
	k.nowNS = ns
	k.wq.advanceTo(ns)
}

// run is the entry and exit handling of one Run, RunFor or RunUntil
// around the event loop: it resets the halted flag, advances the clock to
// a bound the queue did not reach, and drains the task pool when the queue
// ran dry.
func (k *Kernel) run(limitNS int64, bounded bool) uint64 {
	k.halted = false
	defer k.leaveTask() // a task that panicked or called Goexit is unwinding through here
	n := k.loop(limitNS, bounded)
	if bounded && !k.halted && limitNS > k.nowNS {
		k.setNow(limitNS)
	}
	if k.wq.size() == 0 {
		// Nothing can fire until new work is scheduled from outside, so
		// retire the idle pooled coroutines: a suspended coroutine is never
		// collected, and without this every finished simulation would pin
		// its task pool (and kernel) for the process lifetime. The pool
		// re-grows on demand.
		k.drainTaskPool()
	}
	return n
}

// leaveTask marks the run loop as executing. resume does it inline on the
// normal path; the run entry points defer it for a task's panic or Goexit.
func (k *Kernel) leaveTask() { k.current = nil }

// peekNS returns the firing time of the earliest queued event, or
// math.MaxInt64 when the queue is empty. ParKernel uses it to compute the
// global minimum that anchors each conservative lookahead window.
func (k *Kernel) peekNS() int64 {
	if e := k.wq.peek(); e != nil {
		return e.atNS
	}
	return math.MaxInt64
}

// loop is the kernel's one event loop: it pops, skips canceled, advances
// the clock and fires queued events — with firing times ≤ limitNS when
// bounded — until the queue runs dry or Halt is called, and returns the
// count. It does not reset the halted flag, advance the clock to the
// limit, or drain the task pool: run does that around one call, and
// ParKernel around a whole run of lookahead windows, one call each.
func (k *Kernel) loop(limitNS int64, bounded bool) uint64 {
	var n uint64
	for !k.halted {
		e := k.wq.pop(limitNS, bounded)
		if e == nil {
			break
		}
		if e.canceled {
			k.free(e)
			continue
		}
		if e.atNS > k.nowNS {
			k.setNow(e.atNS)
		}
		k.fire(e)
		n++
		k.events++
	}
	return n
}

// drainTaskPool ends every idle pooled task's coroutine. stop is
// synchronous, so their goroutines are gone when it returns. Only free tasks
// are touched; parked tasks (blocked in Wait) keep running when resumed.
func (k *Kernel) drainTaskPool() {
	for t := k.freeTasks; t != nil; {
		next := t.link
		t.link = nil
		t.stop()
		t = next
	}
	k.freeTasks = nil
	k.freeTaskCount = 0
}

// fire executes one event. The event is recycled before its action runs, so
// the action is free to schedule (and the pool to reuse) immediately.
func (k *Kernel) fire(e *event) {
	switch e.kind {
	case evFunc:
		fn := e.fn
		k.free(e)
		fn()
	case evSpawn:
		fn := e.fn
		k.free(e)
		t := k.allocTask()
		t.fn = fn
		k.resume(t, nil)
	case evResume:
		t, v := e.task, e.v
		k.free(e)
		k.resume(t, v)
	case evSleep:
		// Two-step on purpose: the timer fires, then the resume is scheduled
		// at the same instant with a fresh sequence number — exactly the
		// event order of the original Waiter-based Sleep, preserving
		// bit-for-bit compatibility of simulation schedules.
		t := e.task
		k.free(e)
		r := k.alloc()
		r.kind = evResume
		r.task = t
		k.push(r, k.nowNS)
	case evWake:
		w, g, v := e.w, e.wgen, e.v
		k.free(e)
		if w.gen == g {
			w.timer = Timer{}
			w.Wake(v)
		}
	default:
		panic("sim: unknown event kind")
	}
}

// Waiter is a one-shot parking spot for a task. A task creates a Waiter,
// hands it to whoever will produce its wake-up value, and calls Wait. The
// first Wake (or armed timeout) wins; later wakes are no-ops and report
// false.
//
// Wake may legitimately fire before the owner reaches Wait — for example
// a call timeout expiring while the caller is still blocked writing the
// request. The value is then stashed and Wait returns it immediately
// without parking.
//
// Waiters are pooled: Wait recycles the waiter as it returns, so a *Waiter
// must not be used again after its Wait has returned. Code that may hold a
// reference past that point (for example a delayed network verdict racing a
// timeout) must go through Ref, whose generation check makes stale wakes
// safe no-ops.
type Waiter struct {
	k      *Kernel
	gen    uint64 // incremented on recycle; guards Refs and armed timers
	done   bool
	parked bool
	task   *task // owner, once parked
	value  any   // stashed wake value when woken before parking
	timer  Timer // armed timeout, if any
	next   *Waiter
}

// NewWaiter returns a fresh waiter bound to the kernel, taken from the
// kernel's pool when possible.
func (k *Kernel) NewWaiter() *Waiter {
	if w := k.freeWaiters; w != nil {
		k.freeWaiters = w.next
		k.freeWaiterCount--
		w.next = nil
		return w
	}
	return &Waiter{k: k}
}

// freeWaiter recycles w. Bumping gen invalidates outstanding Refs and any
// armed timer event.
func (k *Kernel) freeWaiter(w *Waiter) {
	w.gen++
	w.done = false
	w.parked = false
	w.task = nil
	w.value = nil
	w.timer = Timer{}
	if k.freeWaiterCount >= maxFreeWaiters {
		return // drop to the GC; see maxFreeWaiters
	}
	w.next = k.freeWaiters
	k.freeWaiters = w
	k.freeWaiterCount++
}

// WaiterRef is a generation-stamped reference to a Waiter. Wakes through a
// stale ref (the waiter's Wait returned and the waiter was recycled) are
// no-ops, which makes refs safe to stash in long-lived closures and queues.
type WaiterRef struct {
	w   *Waiter
	gen uint64
}

// Ref returns a generation-stamped reference to w.
func (w *Waiter) Ref() WaiterRef { return WaiterRef{w: w, gen: w.gen} }

// Wake wakes the referenced waiter if the reference is still current.
func (r WaiterRef) Wake(v any) bool {
	if r.w == nil || r.w.gen != r.gen {
		return false
	}
	return r.w.Wake(v)
}

// Wake delivers v to the waiting task. It returns false if the waiter was
// already woken (or timed out). Wake never blocks the caller beyond the
// deterministic handoff to the resumed task.
func (w *Waiter) Wake(v any) bool {
	if w.done {
		return false
	}
	w.done = true
	w.timer.Stop()
	w.timer = Timer{}
	if !w.parked {
		// Owner has not reached Wait yet: stash the value.
		w.value = v
		return true
	}
	e := w.k.alloc()
	e.kind = evResume
	e.task = w.task
	e.v = v
	w.k.push(e, w.k.nowNS)
	return true
}

// WakeAfter arms a timeout: if nothing wakes the waiter within d, it is woken
// with v. Arming twice replaces the previous timeout.
func (w *Waiter) WakeAfter(d time.Duration, v any) {
	if w.done {
		return
	}
	if d < 0 {
		d = 0
	}
	w.timer.Stop()
	e := w.k.alloc()
	e.kind = evWake
	e.w = w
	e.wgen = w.gen
	e.v = v
	w.k.push(e, w.k.nowNS+int64(d))
	w.timer = Timer{e: e, gen: e.gen}
}

// Wait parks the calling task until Wake is called and returns the value
// passed to Wake. If the waiter was already woken, Wait returns the
// stashed value without yielding. Wait recycles the waiter: the *Waiter
// must not be reused after Wait returns (see Ref).
func (w *Waiter) Wait() any {
	k := w.k
	if w.done {
		v := w.value
		k.freeWaiter(w)
		return v
	}
	w.parked = true
	w.task = k.current
	v := k.parkCurrent()
	k.freeWaiter(w)
	return v
}

// String implements fmt.Stringer for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{t=%s queued=%d tasks=%d}", k.Since(), k.wq.size(), k.tasks)
}
