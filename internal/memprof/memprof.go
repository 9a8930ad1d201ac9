// Package memprof implements the memory plane's footprint accountant:
// the bytes-per-instance counterpart of the BENCH_* latency gates. The
// paper's scalability story is bounded by memory per instance (fig8
// reports <1.5 MB per Pastry node and swap onset near the RAM limit), so
// a harness that wants to run millions of instances must know — not
// guess — where its bytes go, and must keep the measurement itself cheap
// enough not to perturb what it evaluates.
//
// An Accountant snapshots the live heap when created, lets long-lived
// layers (arenas, intern tables, client fabrics) register byte sources,
// and reports the precise live-heap growth with a per-layer breakdown.
// Observe is the in-run sampling hook: a throttled, GC-free HeapAlloc
// read cheap enough to call at every ParKernel barrier, tracking the
// peak footprint of a run without stopping the world for a full GC.
package memprof

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// Source reports the bytes one layer currently holds. Sources must be
// cheap and side-effect free: they are read under Report after a GC.
type Source struct {
	Label string
	Bytes func() uint64
}

// Accountant measures live-heap growth between its creation and Report.
type Accountant struct {
	baseline uint64
	peak     uint64
	ticks    uint64
	every    uint64
	sources  []Source
}

// New snapshots the current live heap (after a forced GC) as the
// baseline every later figure is relative to.
func New() *Accountant {
	return &Accountant{baseline: LiveHeap(), every: 64}
}

// Track registers a labelled byte source for Report's breakdown.
func (a *Accountant) Track(label string, bytes func() uint64) {
	if a == nil || bytes == nil {
		return
	}
	a.sources = append(a.sources, Source{Label: label, Bytes: bytes})
}

// Observe samples the heap without forcing a GC, throttled to every
// 64th call so it can sit on a barrier or event hook. A nil Accountant
// discards, so the hook can be threaded unconditionally.
func (a *Accountant) Observe() {
	if a == nil {
		return
	}
	a.ticks++
	if a.ticks%a.every != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > a.peak {
		a.peak = ms.HeapAlloc
	}
}

// Layer is one line of a Report's breakdown.
type Layer struct {
	Label string
	Bytes uint64
}

// Report is a footprint measurement: live-heap growth since New,
// divided over the instance population, with the tracked layers'
// shares. Other is growth no registered source claims (protocol
// structs, runtime pools, maps).
type Report struct {
	Instances int
	HeapBytes uint64 // live-heap growth since New (post-GC)
	PeakBytes uint64 // highest un-GC'd HeapAlloc Observe saw
	Layers    []Layer
	Other     uint64
}

// Report forces a GC and measures. instances scales the per-instance
// figures; pass the node population.
func (a *Accountant) Report(instances int) Report {
	live := LiveHeap()
	r := Report{Instances: instances}
	if live > a.baseline {
		r.HeapBytes = live - a.baseline
	}
	if a.peak > a.baseline {
		r.PeakBytes = a.peak - a.baseline
	}
	var claimed uint64
	for _, s := range a.sources {
		b := s.Bytes()
		claimed += b
		r.Layers = append(r.Layers, Layer{Label: s.Label, Bytes: b})
	}
	sort.SliceStable(r.Layers, func(i, j int) bool { return r.Layers[i].Bytes > r.Layers[j].Bytes })
	if r.HeapBytes > claimed {
		r.Other = r.HeapBytes - claimed
	}
	dumpHeapProfile()
	return r
}

// dumpHeapProfile writes a heap profile at measurement time when
// MEMPLANE_PROFILE names a file. A test binary's -memprofile is written
// at exit, after the measured system is garbage; this hook captures the
// profile while everything the Report counted is still live.
func dumpHeapProfile() {
	path := os.Getenv("MEMPLANE_PROFILE")
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	pprof.Lookup("heap").WriteTo(f, 0) //nolint:errcheck
}

// PerInstance returns live bytes per instance.
func (r Report) PerInstance() float64 {
	if r.Instances <= 0 {
		return 0
	}
	return float64(r.HeapBytes) / float64(r.Instances)
}

// String renders the fig8-style table: total, per instance, layers.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "footprint: %s live over %d instances = %s/instance (peak %s)\n",
		human(r.HeapBytes), r.Instances, human(uint64(r.PerInstance())), human(r.PeakBytes))
	for _, l := range r.Layers {
		fmt.Fprintf(&b, "  %-24s %10s  %8s/instance\n", l.Label, human(l.Bytes),
			human(uint64(float64(l.Bytes)/float64(max(r.Instances, 1)))))
	}
	if r.Other > 0 {
		fmt.Fprintf(&b, "  %-24s %10s  %8s/instance\n", "(unattributed)", human(r.Other),
			human(uint64(float64(r.Other)/float64(max(r.Instances, 1)))))
	}
	return b.String()
}

func human(b uint64) string {
	switch {
	case b >= 10<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 10<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// LiveHeap returns HeapAlloc once the heap has settled: it collects,
// lets the finalizers that cycle queued run, and repeats until two
// cycles in a row free nothing more; a last cycle then frees the
// markers it waited on. Two back-to-back cycles are not enough: an
// object a finalizer still holds survives both whenever the finalizer
// goroutine has not run in between (under CPU load) or sits behind a
// chain of finalizers, and a baseline that counts it undercounts every
// later growth once it dies.
func LiveHeap() uint64 {
	live, still := uint64(math.MaxUint64), 0
	for i := 0; i < maxSettle && still < 2; i++ {
		ran := finalizerMark()
		if h := collect(); h < live {
			live, still = h, 0
		} else {
			still++
		}
		<-ran
	}
	return collect()
}

// collect runs a full cycle and returns the heap it left.
func collect() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maxSettle bounds LiveHeap's cycles on a heap that keeps shrinking.
const maxSettle = 16

// finalizerMark returns a channel closed when the finalizer goroutine
// reaches an object the next cycle finds unreachable. The object holds
// a pointer, so it is never a tiny allocation whose finalizer may not
// run. Finalizers run one at a time, so a finalizer elsewhere that never
// returns stalls LiveHeap as it stalls every finalizer queued after it.
func finalizerMark() <-chan struct{} {
	ran := make(chan struct{})
	mark := &struct{ p *byte }{}
	runtime.SetFinalizer(mark, func(*struct{ p *byte }) { close(ran) })
	return ran
}
