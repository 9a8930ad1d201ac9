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
// Every epoch of virtual time the kernel hands back what its pools and
// queue slices held unused for the whole epoch (see release).
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

// epochBits sets the release epoch: 1<<33 ns ≈ 8.6 s of virtual time. It
// is longer than the slowest beat of the loads the simulations run (5 s
// metric reports and Cyclon shuffles), so what such a load needs once a
// beat is not handed back between beats and re-made at the next; and it is
// a whole number of turns of the timer wheel (16), so a load that recurs
// once an epoch meets the same ring buckets every time.
const epochBits = 33

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
// next spawn. It returns — ending the coroutine — when releaseTasks stops it.
func (t *task) run(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.fn()
		t.fn = nil
		k := t.k
		k.tasks--
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
	nowNS     int64 // virtual ns since Epoch
	seq       uint64
	wq        wheel
	current   *task  // the task executing right now, nil on the run loop
	tasks     int    // live (started, unfinished) tasks
	coros     int    // live task coroutines, running, parked or pooled
	peakCoros int    // coros' high-water mark
	events    uint64 // total events executed, for stats
	halted    bool

	// The free lists, each with its length and its low-water mark since
	// the last release: the objects no allocation reached all epoch.
	freeEvents                 *event
	freeEventCount, eventLow   int
	freeTasks                  *task
	freeTaskCount, taskLow     int
	freeWaiters                *Waiter
	freeWaiterCount, waiterLow int
	releaseNS                  int64    // the next epoch boundary
	releaseHooks               []func() // see AddReleaseHook
}

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

// addHeld adds k's live tasks and what it holds for reuse to st.
func (k *Kernel) addHeld(st *ParStats) {
	st.Tasks += k.tasks
	st.PeakCoroutines += k.peakCoros
	st.IdleTasks += k.freeTaskCount
	st.FreeEvents += k.freeEventCount
	st.FreeWaiters += k.freeWaiterCount
	st.QueueSlots += k.wq.slots()
}

// alloc takes an event from the free list, or makes one.
func (k *Kernel) alloc() *event {
	if e := k.freeEvents; e != nil {
		k.freeEvents = e.next
		k.freeEventCount--
		k.eventLow = min(k.eventLow, k.freeEventCount)
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
		k.taskLow = min(k.taskLow, k.freeTaskCount)
		t.link = nil
		return t
	}
	t := &task{k: k}
	t.next, t.stop = iter.Pull(t.run)
	k.coros++
	k.peakCoros = max(k.peakCoros, k.coros)
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
	if slot := ns >> slotBits; slot != k.wq.startSlot {
		k.newSlot(slot)
	}
}

// newSlot moves the wheel's cursor to slot and ends the epoch when the
// clock has reached its boundary, which is always a bucket boundary too.
func (k *Kernel) newSlot(slot int64) {
	k.wq.advanceTo(slot)
	if k.nowNS >= k.releaseNS {
		k.release()
	}
}

// release ends an epoch. It hands back exactly what sat unused for the
// whole of it — from each free list its low-water mark, from each queue
// slice the capacity far above its high-water length (Trim) — then runs
// the release hooks and starts the next epoch at the following boundary. A
// steady load keeps its working set and never re-allocates it; a burst's
// surplus goes at the end of the first epoch it sat through unused. Pools and slice capacity are
// invisible to every schedule, so releasing never moves an event.
func (k *Kernel) release() {
	for ; k.eventLow > 0; k.eventLow-- {
		e := k.freeEvents
		k.freeEvents, e.next = e.next, nil
		k.freeEventCount--
	}
	for ; k.waiterLow > 0; k.waiterLow-- {
		w := k.freeWaiters
		k.freeWaiters, w.next = w.next, nil
		k.freeWaiterCount--
	}
	k.releaseTasks(k.taskLow)
	k.wq.release()
	for _, fn := range k.releaseHooks {
		fn()
	}
	k.eventLow, k.taskLow, k.waiterLow = k.freeEventCount, k.freeTaskCount, k.freeWaiterCount
	k.releaseNS = (k.nowNS>>epochBits + 1) << epochBits
}

// releaseTasks ends n idle pooled tasks' coroutines. stop is synchronous,
// so their goroutines are gone when it returns. Only free tasks are
// touched; parked tasks (blocked in Wait) keep running when resumed.
func (k *Kernel) releaseTasks(n int) {
	for ; n > 0; n-- {
		t := k.freeTasks
		k.freeTasks, t.link = t.link, nil
		k.freeTaskCount--
		t.stop()
		k.coros--
	}
	k.taskLow = min(k.taskLow, k.freeTaskCount)
}

// AddReleaseHook adds fn to run at the end of every epoch release, on the
// goroutine executing this kernel (for a ParKernel partition, its worker),
// while no task runs. Hooks hand back what their own free lists held unused
// all epoch (simnet's delivery and payload pools); like the kernel's, they
// must not schedule events.
func (k *Kernel) AddReleaseHook(fn func()) { k.releaseHooks = append(k.releaseHooks, fn) }

// run is the entry and exit handling of one Run, RunFor or RunUntil
// around the event loop: it resets the halted flag, advances the clock to
// a bound the queue did not reach, and retires the idle coroutines when
// the queue ran dry.
func (k *Kernel) run(limitNS int64, bounded bool) uint64 {
	k.halted = false
	defer k.leaveTask() // a task that panicked or called Goexit is unwinding through here
	n := k.loop(limitNS, bounded)
	k.leaveRun(limitNS, bounded && !k.halted)
	return n
}

// leaveRun ends a run at limitNS (when toLimit and the queue did not get
// there) and, if the queue ran dry, retires every idle pooled coroutine:
// nothing can fire until new work is scheduled from outside, and a
// suspended coroutine is never collected, so without this every finished
// simulation would pin its task pool (and kernel) for the process
// lifetime. The pool re-grows on demand.
func (k *Kernel) leaveRun(limitNS int64, toLimit bool) {
	if toLimit && limitNS > k.nowNS {
		k.setNow(limitNS)
	}
	if k.wq.size() == 0 {
		k.releaseTasks(k.freeTaskCount)
	}
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
// limit, or retire idle coroutines: run does that around one call, and
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
		k.waiterLow = min(k.waiterLow, k.freeWaiterCount)
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
