package memprof

import (
	"reflect"
	"runtime"
	"testing"
)

// TestNilAccountantDiscards: hooks are threaded unconditionally, so a nil
// accountant (and a nil source) must be a no-op, not a crash.
func TestNilAccountantDiscards(t *testing.T) {
	var a *Accountant
	a.Track("layer", func() uint64 { return 1 })
	a.Observe()

	b := New()
	b.Track("no source", nil)
	if len(b.sources) != 0 {
		t.Errorf("a nil byte source was registered: %v", b.sources)
	}
}

// sink keeps the test's allocation reachable and un-optimized.
var sink []byte

// TestObserveSamplesEvery64th: Observe sits on a kernel barrier, so all but
// every 64th call must return before reading memory statistics.
func TestObserveSamplesEvery64th(t *testing.T) {
	a := New()
	sink = make([]byte, 8<<20)
	for i := 0; i < 63; i++ {
		a.Observe()
	}
	if a.peak != 0 {
		t.Fatalf("peak = %d after 63 calls: Observe sampled before the 64th", a.peak)
	}
	a.Observe()
	if a.peak < a.baseline+8<<20 {
		t.Errorf("peak = %d after the 64th call, want the 8 MB held over the %d baseline", a.peak, a.baseline)
	}
	if rep := a.Report(1); rep.PeakBytes < 8<<20 || rep.HeapBytes < 8<<20 {
		t.Errorf("report = %+v, want peak and live growth of at least the 8 MB held", rep)
	}
	sink = nil
}

// link is one object in a finalizer chain.
type link struct {
	next    *link
	payload []byte
}

// TestBaselineSettlesFinalizerChains: a payload only a chain of two
// finalizers still holds is garbage the moment the accountant starts,
// so it must not count in the baseline. Two back-to-back cycles left it
// there (the second finalizer is queued by the second cycle), and the
// growth read 4 MB short once it died.
func TestBaselineSettlesFinalizerChains(t *testing.T) {
	inner := &link{payload: make([]byte, 4<<20)}
	runtime.SetFinalizer(inner, func(*link) {})
	outer := &link{next: inner}
	runtime.SetFinalizer(outer, func(*link) {})
	inner, outer = nil, nil //nolint:ineffassign,wastedassign // drop the chain's last references
	a := New()
	sink = make([]byte, 8<<20)
	if rep := a.Report(1); rep.HeapBytes < 8<<20 {
		t.Errorf("live growth %d B, want at least the 8 MB held", rep.HeapBytes)
	}
	sink = nil
}

// TestReportBreakdown: layers come largest first (ties in registration
// order), Other is what no source claims and never underflows when sources
// claim more than the heap grew, and per-instance figures divide by the
// population — zero for an empty one.
func TestReportBreakdown(t *testing.T) {
	a := New()
	a.Track("small", func() uint64 { return 10 })
	a.Track("huge", func() uint64 { return 1 << 40 })
	a.Track("mid", func() uint64 { return 500 })
	a.Track("mid2", func() uint64 { return 500 })
	rep := a.Report(4)
	want := []Layer{{"huge", 1 << 40}, {"mid", 500}, {"mid2", 500}, {"small", 10}}
	if !reflect.DeepEqual(rep.Layers, want) {
		t.Errorf("layers = %v, want %v", rep.Layers, want)
	}
	if rep.Other != 0 {
		t.Errorf("Other = %d with sources claiming more than the heap grew, want 0", rep.Other)
	}

	rep = Report{Instances: 4, HeapBytes: 1000, Layers: []Layer{{"a", 600}}, Other: 400}
	if got := rep.PerInstance(); got != 250 {
		t.Errorf("PerInstance = %v, want 250", got)
	}
	rep.Instances = 0
	if got := rep.PerInstance(); got != 0 {
		t.Errorf("PerInstance over no instances = %v, want 0", got)
	}
	if s := rep.String(); s == "" { // must not divide by zero either
		t.Error("empty rendering")
	}

	b := New()
	sink = make([]byte, 4<<20)
	b.Track("claimed", func() uint64 { return 1 << 20 })
	if rep := b.Report(1); rep.Other == 0 || rep.Other != rep.HeapBytes-1<<20 {
		t.Errorf("Other = %d of %d grown with 1 MB claimed, want the remainder", rep.Other, rep.HeapBytes)
	}
	sink = nil
}
