package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHaltResetAcrossRuns pins the Halt contract: halting one Run must not
// poison the next. A kernel that latches halted forever makes RunFor-based
// drivers (the scenario session loop) silently freeze after the first Halt.
func TestHaltResetAcrossRuns(t *testing.T) {
	k := NewKernel()
	ran := false
	k.AfterFunc(10*time.Millisecond, k.Halt)
	k.AfterFunc(20*time.Millisecond, func() { ran = true })
	k.Run()
	if ran {
		t.Fatal("event after Halt ran in the halted call")
	}
	if n := k.Run(); n != 1 || !ran {
		t.Fatalf("second Run after Halt executed %d events (ran=%v), want the remaining event", n, ran)
	}
}

// TestParKernelHaltResetAcrossRuns is the same contract for the partitioned
// kernel: a sub-kernel Halt stops the whole ParKernel at the next barrier,
// and a subsequent Run picks the remaining events back up.
func TestParKernelHaltResetAcrossRuns(t *testing.T) {
	pk := NewParKernel(2, 1, time.Millisecond)
	ran := false
	pk.Sub(0).AfterFunc(10*time.Millisecond, pk.Sub(0).Halt)
	pk.Sub(1).AfterFunc(20*time.Millisecond, func() { ran = true })
	pk.Run()
	if ran {
		t.Fatal("partition 1 event ran after partition 0 halted the kernel")
	}
	pk.Run()
	if !ran {
		t.Fatal("second Run after Halt did not execute the remaining event")
	}
}

// parTrace is a per-partition execution log. Each partition appends only
// from its own events, so recording is race-free under any worker count and
// the logs are directly comparable across runs.
type parTrace struct {
	lines [][]string
}

func newParTrace(parts int) *parTrace { return &parTrace{lines: make([][]string, parts)} }

func (tr *parTrace) add(part int, format string, args ...any) {
	tr.lines[part] = append(tr.lines[part], fmt.Sprintf(format, args...))
}

func (tr *parTrace) String() string {
	var b strings.Builder
	for p, ls := range tr.lines {
		fmt.Fprintf(&b, "partition %d:\n", p)
		for _, l := range ls {
			b.WriteString("  " + l + "\n")
		}
	}
	return b.String()
}

// runHopWorkload seeds the hopping workload on pk and runs it to completion.
// Returns the trace and the event count.
func runHopWorkload(pk *ParKernel) (*parTrace, uint64) {
	tr := seedHopWorkload(pk)
	return tr, pk.Run()
}

// seedHopWorkload seeds a cross-partition hopping workload on pk: four
// chains of deterministic AfterFunc delays, every third hop crossing to the
// next partition at exactly lookahead + jitter, plus a sleeping task per
// partition to exercise the task-switch path.
func seedHopWorkload(pk *ParKernel) *parTrace {
	const parts = 4
	tr := newParTrace(parts)
	var hop func(part, chain, step int)
	hop = func(part, chain, step int) {
		k := pk.Sub(part)
		tr.add(part, "chain %d step %d @%s", chain, step, k.Since())
		if step >= 60 {
			return
		}
		jitter := time.Duration((step*37+chain*11)%5) * 100 * time.Microsecond
		if step%3 == 2 {
			next := (part + 1) % parts
			at := int64(k.Since()) + int64(time.Millisecond+jitter)
			pk.Post(part, next, at, func() { hop(next, chain, step+1) })
		} else {
			k.AfterFunc(jitter, func() { hop(part, chain, step+1) })
		}
	}
	for c := 0; c < parts; c++ {
		c := c
		pk.Go(c, func() {
			for i := 0; i < 20; i++ {
				pk.Sub(c).Sleep(700 * time.Microsecond)
				tr.add(c, "sleeper %d tick %d @%s", c, i, pk.Sub(c).Since())
			}
		})
		pk.GoAfter(c, time.Duration(c)*50*time.Microsecond, func() { hop(c, c, 0) })
	}
	return tr
}

// TestParKernelTasksMigrateAcrossWorkers: a task's coroutine may be resumed
// by any goroutine as long as resumes never overlap, which the window barrier
// guarantees. Run the workload in bounded steps with fewer workers than
// partitions, then inline on the driver, then one worker per partition — every
// run has fresh worker goroutines, so the sleepers parked across each step are
// resumed by a goroutine that did not create them — and require the schedule
// of an undisturbed single-worker run. The race detector checks the hand-off.
func TestParKernelTasksMigrateAcrossWorkers(t *testing.T) {
	ref, refEvents := runHopWorkload(NewParKernel(4, 1, time.Millisecond))

	pk := NewParKernel(4, 2, time.Millisecond)
	tr := seedHopWorkload(pk)
	n := pk.RunFor(3 * time.Millisecond)
	n += pk.RunFor(3 * time.Millisecond)
	pk.setWorkers(1)
	n += pk.RunFor(3 * time.Millisecond)
	pk.setWorkers(4)
	n += pk.RunFor(3 * time.Millisecond)
	pk.setWorkers(3)
	n += pk.Run()
	if got, want := tr.String(), ref.String(); got != want {
		t.Fatalf("schedule diverged when tasks moved between workers:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if n != refEvents {
		t.Fatalf("executed %d events, the undisturbed run %d", n, refEvents)
	}
	if pk.Tasks() != 0 {
		t.Fatalf("%d tasks still live", pk.Tasks())
	}
}

// TestParKernelDeterministicAcrossWorkers pins invariant 9 at the kernel
// level: the merged schedule is a pure function of the simulation, never of
// the worker count.
func TestParKernelDeterministicAcrossWorkers(t *testing.T) {
	var ref *parTrace
	var refEvents uint64
	var refSince time.Duration
	check := func(workers int) {
		t.Helper()
		pk := NewParKernel(4, workers, time.Millisecond)
		tr, n := runHopWorkload(pk)
		if ref == nil {
			ref, refEvents, refSince = tr, n, pk.Since()
			return
		}
		if got, want := tr.String(), ref.String(); got != want {
			t.Fatalf("workers=%d diverged from workers=1:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
		if n != refEvents {
			t.Fatalf("workers=%d executed %d events, workers=1 executed %d", workers, n, refEvents)
		}
		if pk.Since() != refSince {
			t.Fatalf("workers=%d finished at %s, workers=1 at %s", workers, pk.Since(), refSince)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		check(workers)
	}
	// More workers than processors: nobody spins, every wait parks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check(4)
}

// TestParKernelParkFallback stalls one side of the barrier until the other
// has given up spinning and parked — first the coordinator's partition, so a
// helper parks waiting for the next round, then a helper's, so the
// coordinator parks waiting for the round to end — and requires the wake-up
// to arrive, the parks to be counted, and the schedule of a one-worker run.
func TestParKernelParkFallback(t *testing.T) {
	run := func(workers int) (*ParKernel, string, uint64) {
		pk := NewParKernel(4, workers, time.Millisecond)
		tr := seedHopWorkload(pk)
		stallUntilParked := func(part, waiter int) func() {
			return func() {
				tr.add(part, "stall @%s", pk.Sub(part).Since())
				if workers == 1 {
					return
				}
				deadline := time.Now().Add(30 * time.Second)
				for !pk.ws[waiter].parked.Load() {
					if time.Now().After(deadline) {
						t.Errorf("worker %d still spinning after 30s", waiter)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
		pk.Sub(0).AfterFunc(2*time.Millisecond, stallUntilParked(0, 1))
		pk.Sub(1).AfterFunc(5*time.Millisecond, stallUntilParked(1, 0))
		n := pk.Run()
		return pk, tr.String(), n
	}
	_, want, wantN := run(1)
	pk, got, n := run(2)
	if got != want || n != wantN {
		t.Fatalf("schedule diverged after parking (%d events, want %d):\n--- got ---\n%s--- want ---\n%s", n, wantN, got, want)
	}
	if st := pk.Stats(); st.CoordParks == 0 || st.HelperParks == 0 {
		t.Fatalf("parks not counted: %+v", st)
	}
}

// TestParKernelStats pins the self-counters on a workload small enough to
// count by hand.
func TestParKernelStats(t *testing.T) {
	pk := NewParKernel(2, 2, time.Millisecond)
	pk.Sub(0).AfterFunc(0, func() {
		pk.Post(0, 1, int64(time.Millisecond), func() {})
		pk.Post(0, 1, int64(2*time.Millisecond), func() {})
	})
	pk.Run()
	st := pk.Stats()
	if st.Rounds != 3 || st.CrossPosts != 2 || fmt.Sprint(st.Events) != "[1 2]" {
		t.Fatalf("stats = %+v, want 3 rounds, 2 cross posts, events [1 2]", st)
	}
	one := NewParKernel(1, 1, 0)
	one.Sub(0).AfterFunc(0, func() {})
	one.Run()
	if st := one.Stats(); st.Rounds != 0 || fmt.Sprint(st.Events) != "[1]" {
		t.Fatalf("single-partition stats = %+v, want no rounds, events [1]", st)
	}
}

// TestParKernelSinglePartitionMatchesKernel: with one partition the
// ParKernel must degenerate to exactly the plain Kernel schedule.
func TestParKernelSinglePartitionMatchesKernel(t *testing.T) {
	workload := func(k *Kernel) *[]string {
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			k.AfterFunc(time.Duration(i%3)*time.Millisecond, func() {
				log = append(log, fmt.Sprintf("timer %d @%s", i, k.Since()))
			})
			k.Go(func() {
				k.Sleep(time.Duration(i) * 500 * time.Microsecond)
				log = append(log, fmt.Sprintf("task %d @%s", i, k.Since()))
			})
		}
		return &log
	}

	plain := NewKernel()
	wantLog := workload(plain)
	wantN := plain.RunFor(10 * time.Millisecond)

	pk := NewParKernel(1, 1, 0)
	gotLog := workload(pk.Sub(0))
	gotN := pk.RunFor(10 * time.Millisecond)

	if fmt.Sprint(*gotLog) != fmt.Sprint(*wantLog) {
		t.Fatalf("single-partition ParKernel diverged:\n got %v\nwant %v", *gotLog, *wantLog)
	}
	if gotN != wantN || pk.Since() != plain.Since() {
		t.Fatalf("counts/clock diverged: got (%d, %s), want (%d, %s)", gotN, pk.Since(), wantN, plain.Since())
	}
}

// TestParKernelBarrierBoundary pins the wheel-boundary case: an event
// landing exactly on a lookahead barrier runs in the next window, after
// every event strictly inside the previous one, and orders against
// same-instant local events by sequence number — identically at every
// worker count.
func TestParKernelBarrierBoundary(t *testing.T) {
	run := func(workers int) string {
		pk := NewParKernel(2, workers, 10*time.Millisecond)
		tr := newParTrace(2)
		// Partition 1: local events below, at, and above the 10ms barrier,
		// all scheduled at setup (low sequence numbers).
		for _, d := range []time.Duration{10*time.Millisecond - time.Nanosecond, 10 * time.Millisecond, 10*time.Millisecond + time.Nanosecond} {
			d := d
			pk.Sub(1).AfterFunc(d, func() { tr.add(1, "local @%s", pk.Sub(1).Since()) })
		}
		// Partition 0 at t=0: cross post landing exactly on the barrier.
		pk.Sub(0).AfterFunc(0, func() {
			pk.Post(0, 1, int64(10*time.Millisecond), func() { tr.add(1, "cross @%s", pk.Sub(1).Since()) })
			tr.add(0, "origin @%s", pk.Sub(0).Since())
		})
		pk.Run()
		return tr.String()
	}
	got := run(1)
	want := "partition 0:\n" +
		"  origin @0s\n" +
		"partition 1:\n" +
		"  local @9.999999ms\n" +
		"  local @10ms\n" +
		"  cross @10ms\n" +
		"  local @10.000001ms\n"
	if got != want {
		t.Fatalf("barrier-boundary schedule wrong:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if w2 := run(2); w2 != got {
		t.Fatalf("barrier-boundary schedule differs at workers=2:\n--- w2 ---\n%s--- w1 ---\n%s", w2, got)
	}
}

// TestParKernelCrossMergeOrder pins the (timestamp, seq, partition) merge
// key: same-instant cross events order by per-source sequence first, then by
// source partition.
func TestParKernelCrossMergeOrder(t *testing.T) {
	pk := NewParKernel(3, 1, time.Millisecond)
	tr := newParTrace(3)
	at := int64(time.Millisecond)
	pk.Sub(0).AfterFunc(0, func() {
		pk.Post(0, 2, at, func() { tr.add(2, "src0 first") })
		pk.Post(0, 2, at, func() { tr.add(2, "src0 second") })
	})
	pk.Sub(1).AfterFunc(0, func() {
		pk.Post(1, 2, at, func() { tr.add(2, "src1 first") })
	})
	pk.Run()
	// seq ranks before partition: both seq-0 posts precede src0's seq-1 post.
	want := []string{"src0 first", "src1 first", "src0 second"}
	if fmt.Sprint(tr.lines[2]) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", tr.lines[2], want)
	}
}

// TestParKernelLookaheadViolationPanics: posting inside the current window
// means the configured lookahead exceeds the model's minimum delay — a
// configuration bug that must fail loudly, not corrupt the schedule. The
// violating post is made on partition 1, which a helper goroutine owns at two
// workers: the panic must still reach the caller of Run, with the stack of
// the goroutine it happened on.
func TestParKernelLookaheadViolationPanics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pk := NewParKernel(2, workers, 5*time.Millisecond)
		pk.Sub(1).AfterFunc(0, func() {
			pk.Post(1, 0, int64(time.Millisecond), func() {})
		})
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: in-window cross post did not panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "violates the lookahead barrier") {
					t.Fatalf("workers=%d: panic %q does not name the violation", workers, msg)
				}
				if workers > 1 && !strings.Contains(msg, "TestParKernelLookaheadViolationPanics") {
					t.Fatalf("workers=%d: panic lost the helper's stack:\n%s", workers, msg)
				}
			}()
			pk.Run()
		}()
	}
}

// settledGoroutines returns the goroutine count once it is down to want or
// has stopped falling — no drop for 50 ms. A retired helper's last act is
// its arrival at the barrier, so it may still be on its way out when Run
// returns; a leaked one never leaves, and the check fails 50 ms later.
func settledGoroutines(want int) int {
	n, since := runtime.NumGoroutine(), time.Now()
	for n > want && time.Since(since) < 50*time.Millisecond {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			since = time.Now()
		}
		n = m
	}
	return n
}

// quietGoroutines returns the goroutine count once it has held still for
// 50 ms: an earlier test's helper may still be on its way out.
func quietGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for deadline := since.Add(5 * time.Second); time.Since(since) < 50*time.Millisecond && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestParKernelNoGoroutineOutlivesRun: helpers exist only inside a run, on
// every way out of it — queues drained, time limit, Halt, a panic on the
// coordinator's partition, a panic on a helper's — and the kernel runs again
// after each.
func TestParKernelNoGoroutineOutlivesRun(t *testing.T) {
	before := quietGoroutines()
	pk := NewParKernel(4, 4, time.Millisecond)
	// Events only: a task parked across runs is a coroutine, which counts.
	var tick func(part, left int)
	tick = func(part, left int) {
		if left == 0 {
			return
		}
		next := (part + 1) % 4
		at := int64(pk.Sub(part).Since()) + int64(time.Millisecond)
		pk.Post(part, next, at, func() { tick(next, left-1) })
	}
	for p := 0; p < 4; p++ {
		p := p
		pk.Sub(p).AfterFunc(0, func() { tick(p, 40) })
	}
	check := func(how string) {
		t.Helper()
		if n := settledGoroutines(before); n != before {
			t.Fatalf("after %s: %d goroutines, %d before the first run", how, n, before)
		}
	}
	recovered := func(part int) (r any) {
		defer func() { r = recover() }()
		pk.Sub(part).AfterFunc(0, func() { panic(fmt.Sprintf("boom on %d", part)) })
		pk.Run()
		return nil
	}

	pk.RunFor(3 * time.Millisecond)
	check("RunFor")
	pk.Sub(2).AfterFunc(0, pk.Sub(2).Halt)
	pk.Run()
	check("Halt")
	for _, part := range []int{0, 3} {
		if r := recovered(part); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("boom on %d", part)) {
			t.Fatalf("panic on partition %d surfaced as %v", part, r)
		}
		check(fmt.Sprintf("a panic on partition %d", part))
	}
	if n := pk.Run(); n == 0 {
		t.Fatal("nothing left to run after the recovered panics")
	}
	check("Run")
	if got := pk.Stats().CrossPosts; got != 4*40 {
		t.Fatalf("%d cross posts merged over all runs, want %d", got, 4*40)
	}
}

// TestParKernelMergeAllocFree pins the satellite guarantee: the
// barrier/merge hot path — outbox append, sort, merge into the destination
// pool, and with two workers the round hand-off and both waits — performs
// zero heap allocations in steady state. Starting a run's helper is allowed
// its one closure; the rounds, however many, are allowed nothing.
func TestParKernelMergeAllocFree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		testParKernelMergeAllocFree(t, workers)
	}
}

func testParKernelMergeAllocFree(t *testing.T, workers int) {
	pk := NewParKernel(2, workers, time.Millisecond)
	k0, k1 := pk.Sub(0), pk.Sub(1)
	remaining := 0
	var ping, pong func()
	ping = func() {
		if remaining == 0 {
			return
		}
		remaining--
		pk.Post(0, 1, int64(k0.Since())+int64(time.Millisecond), pong)
	}
	pong = func() {
		if remaining == 0 {
			return
		}
		remaining--
		pk.Post(1, 0, int64(k1.Since())+int64(time.Millisecond), ping)
	}
	// Warm the pools — long enough that the ping-pong wraps both timer
	// wheels several times, so every ring bucket's slice has been touched.
	remaining = 4096
	k0.AfterFunc(0, ping)
	pk.Run()
	avg := testing.AllocsPerRun(50, func() {
		remaining = 64
		k0.AfterFunc(0, ping)
		pk.Run()
	})
	if max := float64(workers - 1); avg > max {
		t.Fatalf("workers=%d: a 64-round run allocates %.1f times, want at most %.0f", workers, avg, max)
	}
}

// padCounter avoids false sharing between per-partition benchmark counters
// updated by different workers.
type padCounter struct {
	n uint64
	_ [56]byte
}

// benchmarkParKernel drives 4 partitions of self-perpetuating event chains:
// one event every 10µs per partition, every 64th hop crossing at the 1ms
// lookahead. Each event carries ~256 xorshift rounds (~200ns) of synthetic
// application payload — representative of real deliveries (RPC decode,
// protocol logic), without which barrier synchronization would dominate any
// workload at this event density.
func benchmarkParKernel(b *testing.B, workers int) {
	const parts = 4
	pk := NewParKernel(parts, workers, time.Millisecond)
	var left [parts]padCounter
	var sink [parts]padCounter
	var chains [parts]func()
	for p := 0; p < parts; p++ {
		p := p
		k := pk.Sub(p)
		chains[p] = func() {
			x := sink[p].n + uint64(p)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < 256; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[p].n = x
			if left[p].n == 0 {
				return
			}
			left[p].n--
			if left[p].n%64 == 0 {
				next := (p + 1) % parts
				pk.Post(p, next, int64(k.Since())+int64(time.Millisecond), chains[next])
			} else {
				k.AfterFunc(10*time.Microsecond, chains[p])
			}
		}
	}
	quota := uint64(b.N / parts)
	if quota == 0 {
		quota = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for p := 0; p < parts; p++ {
		left[p].n = quota
		pk.Sub(p).AfterFunc(0, chains[p])
	}
	pk.Run()
}

// BenchmarkParKernelThroughput is the BENCH_parallel.json scaling curve:
// identical workload and schedule at every worker count (invariant 9), wall
// clock the only variable.
func BenchmarkParKernelThroughput(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchmarkParKernel(b, w) })
	}
}
