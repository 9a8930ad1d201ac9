package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// workload is one named set of inputs the benchmark runs end to end
// through the public splay SDK.
type workload struct {
	name string
	why  string
	// simPerWallS is the workload's nominal speed on the reference box
	// (2 cores): -seconds is turned into a simulated window with it, so
	// the work a run does is a pure function of (seed, seconds, scale)
	// and never of the machine — which is what lets sim_digest and the
	// virtual-clock metrics repeat exactly.
	simPerWallS float64
	// sliceSim is the simulated length of one window slice.
	sliceSim time.Duration
	run      func(rc *runCtx, w *workload) (*outcome, error)
}

// minSlices is the fewest slices a window is cut into: enough for the
// median slice to shrug off a noisy neighbour.
const minSlices = 12

// runCtx carries one run's inputs.
type runCtx struct {
	seed      int64
	seconds   int
	scale     float64 // population scale; 1 is the benchmark, tests use 1/20
	tr        *tracer // nil with tracing off
	prof      *cpuProfile
	setupOnly bool // stop after set-up: the children that repeat setup_s
	guard     *guard
}

// slices is how many slices the window of this run has.
func (w *workload) slices(seconds int) int {
	n := int(math.Round(float64(seconds) * w.simPerWallS / w.sliceSim.Seconds()))
	if n < minSlices {
		n = minSlices
	}
	return n
}

// scaled shrinks a population for smoke runs, never below floor.
func (rc *runCtx) scaled(n, floor int) int {
	s := int(math.Round(float64(n) * rc.scale))
	if s < floor {
		s = floor
	}
	return s
}

// outcome is what a workload hands back: the raw material of every
// end-to-end and per-layer metric plus its correctness verdicts.
type outcome struct {
	setup  time.Duration // Scenario.Start → first window slice
	slices []slice
	heapMB float64

	attempted, failed int64              // application operations in the window
	opSimMS           []float64          // ascending virtual-clock op latencies, ms
	counts            map[string]float64 // exact-repeat counts at layer boundaries
	spans             map[string]float64 // wall measurements taken in every run (submit latency …)
	mallocs           uint64             // heap objects allocated over the window
	checks            []string           // violated correctness checks (empty = correct)
	digest            string
}

func (o *outcome) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) ops() int64 {
	var n int64
	for _, s := range o.slices {
		n += s.ops
	}
	return n
}

// window drives the measurement window: n slices of sliceSim simulated
// time each, every one timed with the wall clock. step advances the
// scenario by one slice and returns the operations that completed in it.
// While the profile is armed, it covers exactly the window.
func (rc *runCtx) window(n int, sliceSim time.Duration, step func(i int) int64) (slices []slice, mallocs uint64, err error) {
	endWin := rc.tr.begin("splay.window")
	defer endWin()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rc.prof.start(); err != nil {
		return nil, 0, err
	}
	slices = make([]slice, 0, n)
	for i := 0; i < n; i++ {
		endSlice := rc.tr.begin("splay.slice")
		t := time.Now()
		ops := step(i)
		wall := time.Since(t)
		endSlice()
		slices = append(slices, slice{sim: sliceSim, wall: wall, ops: ops})
		if err := rc.guard.check(); err != nil {
			rc.prof.stop()
			return nil, 0, err
		}
	}
	rc.prof.stop()
	runtime.ReadMemStats(&after)
	return slices, after.Mallocs - before.Mallocs, nil
}

// heapMB is the live heap after a forced collection, in MB. Callers keep
// the session reachable across the call so every instance is counted.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
