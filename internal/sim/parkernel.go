package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// ParKernel is a conservatively synchronized parallel discrete-event kernel:
// P sub-kernels (one per partition), each with its own timer wheel, task
// pool, and clock, advancing in lockstep lookahead windows executed by up to
// W worker goroutines.
//
// Each round the coordinator takes the global minimum pending event time T
// and lets every partition execute its events in [T, T+L), where L is the
// lookahead — the minimum cross-partition link delay of the model above. Any
// event one partition schedules on another lands at or after the window's
// barrier (Post asserts this), so partitions cannot influence each other
// inside a window and may run concurrently. At the barrier the coordinator
// merges all cross-partition events in (timestamp, seq, partition) order —
// a total order that depends only on the simulation itself — and pushes them
// into the destination sub-kernels, so destination sequence numbers, and
// with them the entire schedule, are identical for every worker count,
// including 1. Worker count is a throughput knob, never a semantic one.
//
// With a single partition ParKernel degenerates to the plain Kernel run
// loop: no windows, no barriers, byte-identical behavior.
type ParKernel struct {
	subs    []*Kernel
	lookNS  int64
	workers int

	halted  bool
	running bool

	// windowEnd is the current round's barrier time. It is written by the
	// coordinator between rounds and read by Post during rounds (the epoch
	// bump publishes it); 0 between runs, so out-of-run posts are never
	// rejected.
	windowEnd int64

	out []outbox // per source partition, appended by that partition's worker
	in  [][]xev  // per destination partition, coordinator merge scratch

	// The window barrier. ws[0] is the coordinator — the goroutine driving
	// the run, which executes worker 0's partitions itself — and ws[1:] the
	// helpers, goroutines that live only for the duration of one run (parked
	// goroutines would pin the kernel forever, mirroring drainTaskPool's
	// reasoning). A round is published by storing last and bumping epoch;
	// each helper counts pending down when its share is done. spin is this
	// run's polling budget before a waiter parks. epoch and pending get a
	// cache line each: one side polls them while the other writes the
	// fields around them.
	ws      []worker
	spin    int
	_       [64]byte
	epoch   atomic.Int64
	last    int64
	_       [48]byte
	pending atomic.Int64
	_       [56]byte

	stats ParStats // Events is filled in by Stats

	// barrierHook, when set, runs on the coordinator between lookahead
	// windows — after the barrier merge, before the next round starts. It
	// must not touch simulation state; the memory plane points it at a
	// footprint accountant's Observe. Nil (the default) costs nothing.
	barrierHook func()
}

// xev is a cross-partition event in flight: produced by one partition during
// a window, merged into the destination sub-kernel at the next barrier.
type xev struct {
	atNS int64
	seq  uint64 // per-source post counter: FIFO tiebreak for equal times
	src  int32
	dst  int32
	run  func()
}

// xevLess orders merged cross events by (timestamp, seq, partition): a total
// order independent of worker count and of barrier arrival interleaving.
func xevLess(a, b xev) bool {
	if a.atNS != b.atNS {
		return a.atNS < b.atNS
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.src < b.src
}

// outbox is one source partition's queue of cross events for the current
// window. Padded so outboxes of neighbouring partitions — appended by
// different workers concurrently — do not share a cache line.
type outbox struct {
	evs []xev
	seq uint64
	_   [32]byte
}

// NewParKernel returns a partitioned kernel with parts sub-kernels executed
// by up to workers goroutines (clamped to parts; values < 1 mean 1), with
// the given conservative lookahead. With more than one partition the
// lookahead must be positive and no larger than the minimum cross-partition
// link delay of the network model above — larger values panic at the first
// violating Post.
func NewParKernel(parts, workers int, lookahead time.Duration) *ParKernel {
	if parts < 1 {
		panic("sim: NewParKernel needs at least one partition")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > parts {
		workers = parts
	}
	if parts > 1 && lookahead <= 0 {
		panic("sim: NewParKernel needs a positive lookahead with more than one partition")
	}
	pk := &ParKernel{
		subs:   make([]*Kernel, parts),
		lookNS: int64(lookahead),
		out:    make([]outbox, parts),
		in:     make([][]xev, parts),
	}
	for i := range pk.subs {
		pk.subs[i] = NewKernel()
	}
	pk.setWorkers(workers)
	return pk
}

// setWorkers sizes the worker pool (1 ≤ workers ≤ parts); one worker runs
// every partition inline on the driver. Tests also call it between runs, to
// resume parked tasks from goroutines that did not create their coroutines.
func (pk *ParKernel) setWorkers(workers int) {
	pk.workers, pk.ws = workers, make([]worker, workers)
	for i := range pk.ws {
		pk.ws[i].wake = make(chan struct{}, 1)
	}
}

// Sub returns partition i's sub-kernel. All scheduling entry points (Go,
// AfterFunc, NewWaiter, Sleep, ...) are taken on the sub-kernel owning the
// caller's partition; only cross-partition scheduling goes through Post.
func (pk *ParKernel) Sub(i int) *Kernel { return pk.subs[i] }

// Parts returns the number of partitions.
func (pk *ParKernel) Parts() int { return len(pk.subs) }

// Workers returns the effective worker count.
func (pk *ParKernel) Workers() int { return pk.workers }

// Lookahead returns the conservative lookahead window.
func (pk *ParKernel) Lookahead() time.Duration { return time.Duration(pk.lookNS) }

// SetBarrierHook installs fn to run between lookahead windows, on the
// coordinator, outside every partition's event execution. Hooks observe
// (memory statistics, wall-clock progress) — they must not schedule
// events or touch partition state, and they never run on single-partition
// kernels (which have no barriers). Nil clears the hook.
func (pk *ParKernel) SetBarrierHook(fn func()) { pk.barrierHook = fn }

// Go starts fn as a cooperative task on partition part at that partition's
// current virtual time.
func (pk *ParKernel) Go(part int, fn func()) { pk.subs[part].GoAfter(0, fn) }

// GoAfter starts fn as a task on partition part after virtual duration d,
// relative to that partition's clock. Call it during setup (between runs) or
// from code already executing on that partition; cross-partition scheduling
// from inside a run must go through Post.
func (pk *ParKernel) GoAfter(part int, d time.Duration, fn func()) {
	pk.subs[part].GoAfter(d, fn)
}

// Post schedules run to execute on partition dst at absolute virtual time
// atNS (ns since Epoch). It must be called from code executing on partition
// src — src's worker owns the outbox for the duration of the window — or
// from outside a run entirely. Conservative synchronization requires atNS to
// lie at or past the current window's barrier; a violation means the model's
// minimum cross-partition delay is smaller than the configured lookahead,
// which is a configuration bug, so it panics rather than corrupting the
// schedule.
func (pk *ParKernel) Post(src, dst int, atNS int64, run func()) {
	if we := pk.windowEnd; atNS < we {
		panic(fmt.Sprintf(
			"sim: cross-partition post from %d to %d at t=%dns violates the lookahead barrier at t=%dns (lookahead %s exceeds the model's minimum cross-partition delay)",
			src, dst, atNS, we, time.Duration(pk.lookNS)))
	}
	o := &pk.out[src]
	o.evs = append(o.evs, xev{atNS: atNS, seq: o.seq, src: int32(src), dst: int32(dst), run: run})
	o.seq++
}

// Since returns the virtual duration elapsed since Epoch at the slowest
// partition. After a bounded run all partitions sit exactly at the limit.
func (pk *ParKernel) Since() time.Duration {
	low := pk.subs[0].nowNS
	for _, s := range pk.subs[1:] {
		if s.nowNS < low {
			low = s.nowNS
		}
	}
	return time.Duration(low)
}

// Now returns the current virtual time (see Since).
func (pk *ParKernel) Now() time.Time { return Epoch.Add(pk.Since()) }

// Events returns the total number of events executed across all partitions.
func (pk *ParKernel) Events() uint64 {
	var n uint64
	for _, s := range pk.subs {
		n += s.events
	}
	return n
}

// ParStats is what a ParKernel counted about its own runs since it was
// created: plain counters kept by the coordinator, no clock reads. With one
// worker there is no barrier to wait at, so the park counts stay 0; with one
// partition there are no rounds either.
type ParStats struct {
	Rounds      uint64   // lookahead windows executed
	CrossPosts  uint64   // cross-partition events merged at barriers
	CoordParks  uint64   // rounds in which the coordinator out-waited its spin budget and slept
	HelperParks uint64   // the same for helpers, one count per helper and round
	Events      []uint64 // events executed, per partition
	Tasks       int      // live cooperative tasks right now, parked ones included
}

// Stats returns the kernel's self-counters. Call it between runs or from a
// barrier hook.
func (pk *ParKernel) Stats() ParStats {
	st := pk.stats
	st.Events = make([]uint64, len(pk.subs))
	for i, s := range pk.subs {
		st.Events[i] = s.events
	}
	st.Tasks = pk.Tasks()
	return st
}

// Tasks returns the number of live cooperative tasks across all partitions.
func (pk *ParKernel) Tasks() int {
	n := 0
	for _, s := range pk.subs {
		n += s.tasks
	}
	return n
}

// Run executes events until every partition's queue drains or Halt is
// called. It returns the number of events executed during this call.
func (pk *ParKernel) Run() uint64 { return pk.run(0, false) }

// RunUntil executes events with firing times ≤ t, then sets every
// partition's clock to t.
func (pk *ParKernel) RunUntil(t time.Time) uint64 { return pk.run(int64(t.Sub(Epoch)), true) }

// RunFor advances the simulation by virtual duration d.
func (pk *ParKernel) RunFor(d time.Duration) uint64 {
	return pk.run(int64(pk.Since())+int64(d), true)
}

// Halt stops the run after the current lookahead window completes. Call it
// between runs or from the driving goroutine; a task inside the simulation
// halts deterministically by calling Halt on its own sub-kernel, which stops
// that partition immediately and the whole ParKernel at the next barrier.
func (pk *ParKernel) Halt() { pk.halted = true }

func (pk *ParKernel) run(limitNS int64, bounded bool) uint64 {
	if pk.running {
		panic("sim: ParKernel run loop re-entered")
	}
	pk.running = true
	defer func() {
		pk.running = false
		pk.windowEnd = 0
		for _, s := range pk.subs {
			s.leaveTask()
		}
	}()

	// Reset halt latches on entry, mirroring Kernel.run: Halt stops this
	// run, not every future one.
	pk.halted = false
	for _, s := range pk.subs {
		s.halted = false
	}

	if len(pk.subs) == 1 {
		// Single partition: no windows, no barriers — exactly the plain
		// Kernel run loop (merge first in case anything was posted from
		// outside a run).
		pk.mergeCross()
		return pk.subs[0].run(limitNS, bounded)
	}

	n := pk.runWindows(limitNS, bounded)
	// Posts from the final round are future events: queue them for the next
	// run before the outboxes go quiet.
	pk.mergeCross()

	for _, s := range pk.subs {
		if bounded && !pk.halted && limitNS > s.nowNS {
			s.setNow(limitNS)
		}
		if s.wq.size() == 0 {
			s.drainTaskPool()
		}
	}
	return n
}

// runWindows is the lookahead loop of one run: helpers up, rounds until the
// queues drain, the limit is reached or a partition halts, helpers retired —
// also when a round panics, so no goroutine outlives the run.
func (pk *ParKernel) runWindows(limitNS int64, bounded bool) uint64 {
	pk.startHelpers()
	defer pk.retireHelpers()
	var n uint64
	for !pk.halted {
		pk.mergeCross()
		low := int64(math.MaxInt64)
		for _, s := range pk.subs {
			if p := s.peekNS(); p < low {
				low = p
			}
		}
		if low == math.MaxInt64 || (bounded && low > limitNS) {
			break
		}
		we := low + pk.lookNS
		pk.windowEnd = we
		last := we - 1
		if bounded && last > limitNS {
			last = limitNS
		}
		n += pk.runRound(last)
		for _, s := range pk.subs {
			if s.halted {
				pk.halted = true
			}
		}
		if pk.barrierHook != nil {
			pk.barrierHook()
		}
	}
	return n
}

// Spin-then-park: a waiter polls the value it waits for spinBudget times
// (≈ 3 ns a poll, so ≈ 0.4 ms), yielding the processor every spinYield
// polls, before it parks on its wake channel. A round of a few dozen events
// lasts tens of microseconds; a futex sleep and wake-up costs as much again,
// and several times that on a virtual CPU, which the hypervisor takes back
// while it idles — so a waiter that parks at once more than doubles the cost
// of every round. The budget covers the imbalance between the shares of an
// ordinary round (on the bench's chord_plain 1 % of the helper's waits
// outlast it, 37 % outlast an eighth of it); what does outlast it — a GC
// cycle, a descheduled thread, an outsized event — is worth sleeping through.
const (
	spinBudget = 1 << 17
	spinYield  = 1 << 8
)

// retireRound is the round limit that tells a helper to exit.
const retireRound = math.MinInt64

// worker is one side of the window barrier: ws[0] the coordinator, the rest
// helpers. Padded so a helper publishing its round result does not share a
// cache line with its neighbour's parked flag.
type worker struct {
	parked atomic.Bool
	wake   chan struct{} // buffered 1: unpark never blocks

	// Written by the helper during a round, read by the coordinator after
	// the barrier (the pending countdown orders the two).
	n     uint64       // events executed this round
	slept bool         // parked while waiting for this round
	fault *workerPanic // set once; the helper's goroutine is gone
	_     [24]byte
}

// await returns once v holds want, and reports whether it had to park. The
// parked flag is raised before the final re-check and whoever lowers it —
// the waiter itself or unpark — settles who owes the wake-up, so none is
// lost. A wake-up owed for an earlier wait can arrive late; hence the loop.
func (w *worker) await(v *atomic.Int64, want int64, spin int) (slept bool) {
	for i := 0; i < spin; i++ {
		if v.Load() == want {
			return false
		}
		if i%spinYield == spinYield-1 {
			runtime.Gosched()
		}
	}
	for v.Load() != want {
		w.parked.Store(true)
		if v.Load() == want && w.parked.CompareAndSwap(true, false) {
			break
		}
		<-w.wake
		slept = true
	}
	return slept
}

// unpark wakes w if it is parked or about to park. Call it after storing the
// value w awaits.
func (w *worker) unpark() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// workerPanic carries a panic (or runtime.Goexit: value nil) out of a helper
// goroutine to the goroutine driving the run, which re-panics with it: a
// failing event is recoverable by the caller whichever worker owns its
// partition, and an unrecovered one prints the stack it actually came from.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	v := p.value
	if v == nil {
		v = "runtime.Goexit called"
	}
	return fmt.Sprintf("%v\n\nsim: on a ParKernel helper goroutine:\n%s", v, p.stack)
}

// runRound executes one lookahead window on every partition. Partition j is
// always executed by worker j mod W, so each outbox has exactly one writer;
// the coordinator is worker 0, and with one worker it runs everything.
func (pk *ParKernel) runRound(last int64) uint64 {
	pk.stats.Rounds++
	if pk.workers == 1 {
		return pk.runShare(0, last)
	}
	pk.publish(last, pk.workers-1)
	n := pk.runShare(0, last)
	if pk.awaitHelpers() {
		pk.stats.CoordParks++
	}
	for i := 1; i < len(pk.ws); i++ {
		h := &pk.ws[i]
		if h.fault != nil {
			panic(h.fault)
		}
		if h.slept {
			pk.stats.HelperParks++
		}
		n += h.n
	}
	return n
}

// runShare executes worker i's partitions — i, i+W, i+2W, ... — up to last.
func (pk *ParKernel) runShare(i int, last int64) (n uint64) {
	for j := i; j < len(pk.subs); j += pk.workers {
		n += pk.subs[j].runWindow(last)
	}
	return n
}

// publish starts a round for the given number of helpers: everything the
// coordinator wrote before the epoch bump is visible to a helper that has
// seen the new epoch.
func (pk *ParKernel) publish(last int64, helpers int) {
	pk.pending.Store(int64(helpers))
	pk.last = last
	pk.epoch.Add(1)
	for i := 1; i < len(pk.ws); i++ {
		pk.ws[i].unpark()
	}
}

// awaitHelpers blocks the coordinator until every helper of the published
// round has arrived, and reports whether it had to park.
func (pk *ParKernel) awaitHelpers() bool {
	return pk.ws[0].await(&pk.pending, 0, pk.spin)
}

// arrive is a helper's end of round; the last one in wakes the coordinator.
// The retire round's arrival is the last thing a helper does, possibly after
// the run has returned, so it reaches the coordinator through a pointer taken
// while the run was live and touches nothing a later setWorkers replaces.
func (pk *ParKernel) arrive(coord *worker) {
	if pk.pending.Add(-1) == 0 {
		coord.unpark()
	}
}

// workerLoop is helper i: it runs worker i's share of every round published
// after epoch, until the retire round. A panic or runtime.Goexit unwinding
// out of its share is left in fault for the coordinator to re-raise; the
// helper still arrives, so the barrier completes, and is then gone.
func (pk *ParKernel) workerLoop(i int, epoch int64) {
	h, coord := &pk.ws[i], &pk.ws[0]
	retired := false
	defer func() {
		if !retired {
			h.fault = &workerPanic{value: recover(), stack: debug.Stack()}
		}
		pk.arrive(coord)
	}()
	for {
		epoch++
		h.slept = h.await(&pk.epoch, epoch, pk.spin)
		last := pk.last
		if last == retireRound {
			retired = true
			return
		}
		h.n = pk.runShare(i, last)
		pk.arrive(coord)
	}
}

// startHelpers spawns the helper goroutines for one run and fixes its spin
// budget: with more workers than processors a spinning waiter would only
// keep the worker it waits for off the CPU, so everyone parks at once.
func (pk *ParKernel) startHelpers() {
	pk.spin = spinBudget
	if pk.workers > runtime.GOMAXPROCS(0) {
		pk.spin = 0
	}
	for i := 1; i < pk.workers; i++ {
		pk.ws[i].fault = nil
		go pk.workerLoop(i, pk.epoch.Load())
	}
}

// retireHelpers ends the run's helper goroutines and waits until the last
// one has let go of the kernel, so an abandoned ParKernel is collectable
// (goroutines parked on a reachable channel never are) and the next run's
// helpers never meet this one's. It runs deferred: when the coordinator's
// own share panicked the helpers may still be inside that round.
func (pk *ParKernel) retireHelpers() {
	if pk.workers == 1 {
		return
	}
	pk.awaitHelpers()
	live := 0
	for i := 1; i < len(pk.ws); i++ {
		if pk.ws[i].fault == nil {
			live++
		}
	}
	if live > 0 {
		pk.publish(retireRound, live)
		pk.awaitHelpers()
	}
}

// mergeCross drains every outbox, sorts each destination's incoming events
// into (timestamp, seq, partition) order, and pushes them into the
// destination sub-kernels. Destination sequence numbers are assigned in
// sorted order, so the merged schedule is a pure function of the simulation,
// never of worker count or barrier arrival interleaving. The hot path reuses
// the outbox/inbox slices and the destination kernels' event pools: zero
// allocations in steady state.
func (pk *ParKernel) mergeCross() {
	for d := range pk.in {
		pk.in[d] = pk.in[d][:0]
	}
	for s := range pk.out {
		o := &pk.out[s]
		pk.stats.CrossPosts += uint64(len(o.evs))
		for i := range o.evs {
			e := o.evs[i]
			o.evs[i].run = nil // keep retained capacity from pinning closures
			pk.in[e.dst] = append(pk.in[e.dst], e)
		}
		o.evs = o.evs[:0]
	}
	for d := range pk.in {
		evs := pk.in[d]
		if len(evs) == 0 {
			continue
		}
		sortXevs(evs)
		sub := pk.subs[d]
		for i := range evs {
			e := sub.alloc()
			e.kind = evFunc
			e.fn = evs[i].run
			sub.push(e, evs[i].atNS)
			evs[i].run = nil
		}
	}
}

// sortXevs is an in-place heapsort by xevLess: sort.Slice would allocate its
// closure on every barrier, and the merge path is pinned at 0 allocs/op.
func sortXevs(s []xev) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftXev(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftXev(s, 0, i)
	}
}

func siftXev(s []xev, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && xevLess(s[c], s[c+1]) {
			c++
		}
		if !xevLess(s[i], s[c]) {
			return
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// String implements fmt.Stringer for debugging.
func (pk *ParKernel) String() string {
	queued := 0
	for _, s := range pk.subs {
		queued += s.wq.size()
	}
	return fmt.Sprintf("sim.ParKernel{parts=%d workers=%d t=%s queued=%d tasks=%d}",
		len(pk.subs), pk.workers, pk.Since(), queued, pk.Tasks())
}
