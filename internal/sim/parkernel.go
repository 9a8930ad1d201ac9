package sim

import (
	"fmt"
	"math"
	"sync"
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
	// coordinator between rounds and read by Post during rounds (the worker
	// channel handoff publishes it); 0 between runs, so out-of-run posts are
	// never rejected.
	windowEnd int64

	out []outbox // per source partition, appended by that partition's worker
	in  [][]xev  // per destination partition, coordinator merge scratch

	// Worker pool: channels live for the ParKernel's lifetime, goroutines
	// only for the duration of one Run (parked goroutines would pin the
	// kernel forever, mirroring drainTaskPool's reasoning).
	wchans  []chan int64
	wcounts []uint64
	wg      sync.WaitGroup

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
	pk.workers, pk.wchans, pk.wcounts = workers, nil, nil
	if workers > 1 {
		pk.wchans = make([]chan int64, workers)
		for i := range pk.wchans {
			pk.wchans[i] = make(chan int64)
		}
		pk.wcounts = make([]uint64, workers)
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

	pk.startWorkers()
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
	// Posts from the final round are future events: queue them for the next
	// run before the outboxes go quiet.
	pk.mergeCross()
	pk.windowEnd = 0
	pk.stopWorkers()

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

// runRound executes one lookahead window on every partition: inline when
// single-threaded, fanned out over the worker pool otherwise. Partition j is
// always executed by worker j mod W, so each outbox has exactly one writer.
func (pk *ParKernel) runRound(last int64) uint64 {
	if pk.wchans == nil {
		var n uint64
		for _, s := range pk.subs {
			n += s.runWindow(last)
		}
		return n
	}
	pk.wg.Add(len(pk.wchans))
	for _, c := range pk.wchans {
		c <- last
	}
	pk.wg.Wait()
	var n uint64
	for i := range pk.wcounts {
		n += pk.wcounts[i]
	}
	return n
}

// workerLoop is one pool worker: it owns partitions i, i+W, i+2W, ... for
// every round of the current run. A math.MinInt64 sentinel retires it.
func (pk *ParKernel) workerLoop(i int) {
	for {
		last := <-pk.wchans[i]
		if last == math.MinInt64 {
			pk.wg.Done()
			return
		}
		var n uint64
		for j := i; j < len(pk.subs); j += pk.workers {
			n += pk.subs[j].runWindow(last)
		}
		pk.wcounts[i] = n
		pk.wg.Done()
	}
}

// startWorkers spawns the pool goroutines for one run. They are retired at
// run exit so an abandoned ParKernel is collectable (parked goroutines on a
// reachable channel never are).
func (pk *ParKernel) startWorkers() {
	for i := range pk.wchans {
		go pk.workerLoop(i)
	}
}

// stopWorkers retires the pool goroutines and waits for them to exit, so the
// next run's pool never races this one's on the round channels.
func (pk *ParKernel) stopWorkers() {
	if pk.wchans == nil {
		return
	}
	pk.wg.Add(len(pk.wchans))
	for _, c := range pk.wchans {
		c <- math.MinInt64
	}
	pk.wg.Wait()
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
