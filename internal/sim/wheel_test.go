package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The timer wheel must preserve the exact (time, seq) total order of the
// original single-heap design across every structural boundary: within a
// bucket, across buckets, across the ring/overflow horizon, and through
// cascades as the clock advances.

// TestWheelHorizonBoundary schedules events just inside, exactly at, and
// just beyond the ring horizon and checks global firing order.
func TestWheelHorizonBoundary(t *testing.T) {
	horizon := time.Duration(wheelSlots << slotBits) // ≈ 0.54 s
	delays := []time.Duration{
		horizon - time.Nanosecond,
		horizon,
		horizon + time.Nanosecond,
		horizon / 2,
		2 * horizon,
		time.Nanosecond,
		0,
	}
	k := NewKernel()
	var got []time.Duration
	for _, d := range delays {
		k.AfterFunc(d, func() { got = append(got, k.Since()) })
	}
	k.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d events", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events fired out of order: %v", got)
		}
	}
	if got[len(got)-1] != 2*horizon {
		t.Fatalf("last event at %v, want %v", got[len(got)-1], 2*horizon)
	}
}

// TestWheelCascadeInterleaving parks a far event in the overflow heap, then
// schedules near events around its firing time from a callback that runs
// after the cascade window opens; order must still be exact.
func TestWheelCascadeInterleaving(t *testing.T) {
	k := NewKernel()
	var got []int
	k.AfterFunc(3*time.Second, func() { got = append(got, 2) }) // overflow at schedule time
	k.AfterFunc(2900*time.Millisecond, func() {
		// By now the 3 s event has cascaded into the ring. Surround it.
		k.AfterFunc(99*time.Millisecond, func() { got = append(got, 1) })  // 2999 ms
		k.AfterFunc(101*time.Millisecond, func() { got = append(got, 3) }) // 3001 ms
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("cascade interleaving broken: %v", got)
	}
}

// TestWheelSameInstantFIFO floods one instant that sits exactly on a bucket
// boundary; insertion order must be preserved.
func TestWheelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	at := time.Duration(1) << slotBits // first nanosecond of bucket 1
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.AfterFunc(at, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got)
		}
	}
}

// TestWheelOrderingProperty fuzzes delays spanning nanoseconds to minutes
// (both sides of the horizon), with re-scheduling from callbacks, and
// verifies the global order against a reference: nondecreasing time, FIFO
// within an instant.
func TestWheelOrderingProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k := NewKernel()
		type firing struct {
			at  time.Duration
			seq int
		}
		var got []firing
		seq := 0
		spans := []time.Duration{time.Microsecond, time.Millisecond, 100 * time.Millisecond, time.Minute}
		var add func(depth int)
		add = func(depth int) {
			n := 5 + rng.Intn(10)
			for i := 0; i < n; i++ {
				d := time.Duration(rng.Int63n(int64(spans[rng.Intn(len(spans))])))
				mySeq := seq
				seq++
				k.AfterFunc(d, func() {
					got = append(got, firing{k.Since(), mySeq})
					if depth < 2 && rng.Intn(4) == 0 {
						add(depth + 1)
					}
				})
			}
		}
		add(0)
		k.Run()
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				t.Fatalf("trial %d: time went backwards at %d: %v then %v",
					trial, i, got[i-1].at, got[i].at)
			}
		}
	}
}

// TestWheelRunUntilAcrossHorizon drives the clock in bounded steps across
// several horizons with overflow events pending.
func TestWheelRunUntilAcrossHorizon(t *testing.T) {
	k := NewKernel()
	var got []time.Duration
	for _, d := range []time.Duration{100 * time.Millisecond, time.Second, 3 * time.Second, 10 * time.Second} {
		d := d
		k.AfterFunc(d, func() { got = append(got, d) })
	}
	for i := 0; i < 100; i++ {
		k.RunFor(200 * time.Millisecond)
	}
	if len(got) != 4 {
		t.Fatalf("fired %d of 4 events: %v", len(got), got)
	}
	if k.Since() != 20*time.Second {
		t.Fatalf("clock at %v, want 20s", k.Since())
	}
}

// sweepTrace drives one kernel through a seeded mix of AfterFunc, Stop and
// waiter timeouts that are mostly answered before they expire, over delays on
// both sides of the ring horizon, and returns every firing with its instant.
// sweepAt is written back before each operation, so 1 sweeps the overflow
// heap on every far push and math.MaxInt never sweeps it.
func sweepTrace(seed int64, sweepAt int) (trace []string, events uint64) {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	spans := []time.Duration{time.Millisecond, 300 * time.Millisecond, 5 * time.Second, time.Minute}
	delay := func() time.Duration { return time.Duration(rng.Int63n(int64(spans[rng.Intn(len(spans))]))) }
	record := func(what string, id int) {
		trace = append(trace, fmt.Sprintf("%s %d @%s", what, id, k.Since()))
	}
	var timers []Timer
	var waiters []WaiterRef
	k.Go(func() {
		for id := 0; id < 3000; id++ {
			id := id
			k.wq.sweepAt = sweepAt
			switch rng.Intn(6) {
			case 0, 1:
				timers = append(timers, k.AfterFunc(delay(), func() { record("func", id) }))
			case 2:
				if len(timers) > 0 {
					if timers[rng.Intn(len(timers))].Stop() {
						record("stopped by", id)
					}
				}
			case 3, 4:
				w := k.NewWaiter()
				w.WakeAfter(delay(), "timeout")
				waiters = append(waiters, w.Ref())
				k.Go(func() { record(w.Wait().(string), id) })
			case 5:
				if len(waiters) > 0 {
					waiters[rng.Intn(len(waiters))].Wake("reply")
				}
			}
			k.Sleep(time.Duration(rng.Int63n(int64(20 * time.Millisecond))))
		}
	})
	k.Run()
	return trace, k.Events()
}

// TestOverflowSweepInvisible: sweeping cancelled events out of the overflow
// heap — on every far push or never — must not change what fires, when, in
// which order, or how many events the kernel counts.
func TestOverflowSweepInvisible(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		swept, sweptEvents := sweepTrace(seed, 1)
		kept, keptEvents := sweepTrace(seed, math.MaxInt)
		if sweptEvents != keptEvents {
			t.Fatalf("seed %d: %d events with sweeping, %d without", seed, sweptEvents, keptEvents)
		}
		if !slices.Equal(swept, kept) {
			i := 0
			for i < len(swept) && i < len(kept) && swept[i] == kept[i] {
				i++
			}
			t.Fatalf("seed %d: traces (%d firings with sweeping, %d without) diverge at %d: %q with, %q without",
				seed, len(swept), len(kept), i, swept[i:min(i+1, len(swept))], kept[i:min(i+1, len(kept))])
		}
	}
}

// TestOverflowBoundedUnderAnsweredTimeouts is the RPC pattern: every call
// arms a far timeout and is answered within milliseconds. The cancelled
// timeouts must not pile up until their deadlines: the overflow heap stays
// within twice the armed ones.
func TestOverflowBoundedUnderAnsweredTimeouts(t *testing.T) {
	const callers, calls = 600, 200
	k := NewKernel()
	bound := max(minSweepAt, 2*callers)
	worst := 0
	for c := 0; c < callers; c++ {
		c := c
		k.Go(func() {
			for i := 0; i < calls; i++ {
				w := k.NewWaiter()
				w.WakeAfter(30*time.Second, "timeout")
				ref := w.Ref()
				k.AfterFunc(time.Duration(1+(c+i)%5)*time.Millisecond, func() { ref.Wake("reply") })
				if v := w.Wait(); v != "reply" {
					t.Errorf("caller %d call %d got %v", c, i, v)
					return
				}
				worst = max(worst, len(k.wq.overflow))
			}
		})
	}
	k.Run()
	if worst > bound {
		t.Fatalf("overflow heap reached %d events with %d timeouts armed, want at most %d", worst, callers, bound)
	}
	if k.Since() >= 30*time.Second {
		t.Fatalf("clock at %s: the run outlived the timeouts, so the bound proved nothing", k.Since())
	}
}
