package faults

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

// TestBackoffGrowthAndCap checks the deterministic schedule shape.
func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w {
			t.Errorf("attempt %d: delay = %s, want %s", i, got, w)
		}
	}
	if (Backoff{}).Enabled() {
		t.Error("zero Backoff reports enabled")
	}
}

// TestBackoffJitterBoundsAndDeterminism checks jitter stays in
// [d·(1−J), d) and that the same rng seed yields the same schedule.
func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute, Factor: 2, Jitter: 0.5}
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		d1 := b.Delay(i, r1)
		d2 := b.Delay(i, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %s vs %s", i, d1, d2)
		}
		full := b.Delay(i, nil) // Jitter with nil rng is skipped
		if d1 < full/2 || d1 > full {
			t.Errorf("attempt %d: jittered %s outside [%s, %s]", i, d1, full/2, full)
		}
	}
}

// fakeView is a mutable metric view for engine tests.
type fakeView struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]int64
	nodes    int
}

func newFakeView() *fakeView {
	return &fakeView{counters: map[string]uint64{}, gauges: map[string]int64{}}
}

func (v *fakeView) set(name string, n uint64) {
	v.mu.Lock()
	v.counters[name] = n
	v.mu.Unlock()
}

func (v *fakeView) CounterTotal(name string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.counters[name]
}
func (v *fakeView) GaugeSum(name string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.gauges[name]
}
func (v *fakeView) HistStats(string) (uint64, int64)   { return 0, 0 }
func (v *fakeView) HistQuantile(string, float64) int64 { return 0 }
func (v *fakeView) Nodes() int                         { return v.nodes }

// fakeActuators records calls.
type fakeActuators struct {
	mu      sync.Mutex
	crashes int
	heals   int
	parts   int
	grows   int
	rpcSets int
}

func (a *fakeActuators) Crash(float64, int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.crashes++
	return 1, nil
}
func (a *fakeActuators) Restart() (int, error) { return 0, nil }
func (a *fakeActuators) Partition(float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.parts++
	return nil
}
func (a *fakeActuators) Heal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.heals++
	return nil
}
func (a *fakeActuators) Degrade(time.Duration, float64) error { return nil }
func (a *fakeActuators) Restore() error                       { return nil }
func (a *fakeActuators) SetRPCFault(string, float64, time.Duration) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rpcSets++
	return nil
}
func (a *fakeActuators) ClearRPCFault() error { return nil }
func (a *fakeActuators) Grow(int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.grows++
	return nil
}

// TestEngineTimedEvents checks events apply at their offsets.
func TestEngineTimedEvents(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	act := &fakeActuators{}
	plan := Plan{Events: []Event{
		{At: 10 * time.Second, Kind: Partition, Fraction: 0.5},
		{At: 30 * time.Second, Kind: Heal},
	}}
	e := NewEngine(rt, newFakeView(), act, plan, nil, nil)
	e.Arm()
	k.RunFor(20 * time.Second)
	if act.parts != 1 || act.heals != 0 {
		t.Fatalf("after 20s: parts=%d heals=%d, want 1/0", act.parts, act.heals)
	}
	k.RunFor(20 * time.Second)
	if act.parts != 1 || act.heals != 1 {
		t.Fatalf("after 40s: parts=%d heals=%d, want 1/1", act.parts, act.heals)
	}
}

// TestEngineRuleFiresOnceAfterSustain checks the For window, the
// once-by-default fire budget, and the firing record.
func TestEngineRuleFiresOnceAfterSustain(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	view := newFakeView()
	act := &fakeActuators{}
	plan := Plan{
		EvalEvery: time.Second,
		Rules: []Rule{{
			Name: "heal-on-failures",
			When: Condition{Metric: "app.failed", Stat: StatTotal, Op: Above, Value: 10},
			For:  3 * time.Second,
			Do:   Action{Kind: ActHeal},
		}},
	}
	e := NewEngine(rt, view, act, plan, nil, nil)
	e.Arm()
	k.RunFor(10 * time.Second)
	if act.heals != 0 {
		t.Fatalf("rule fired with condition never holding")
	}
	view.set("app.failed", 50)
	k.RunFor(2 * time.Second)
	if act.heals != 0 {
		t.Fatalf("rule fired before the For window elapsed")
	}
	k.RunFor(10 * time.Second)
	if act.heals != 1 {
		t.Fatalf("heals = %d after sustained condition, want 1", act.heals)
	}
	k.RunFor(30 * time.Second)
	if act.heals != 1 {
		t.Fatalf("rule fired %d times, want once (MaxFires default)", act.heals)
	}
	fs := e.Firings()
	if len(fs) != 1 || fs[0].Rule != "heal-on-failures" {
		t.Fatalf("firings = %+v", fs)
	}
}

// TestEngineHoldsOneTickHandle runs a thousand evaluation ticks, then
// checks that a further tick re-arms the one held handle without
// allocating (a cancel kept per tick would be allocated and retained),
// and that Stop still ends the loop.
func TestEngineHoldsOneTickHandle(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	plan := Plan{
		EvalEvery: time.Second,
		Events: []Event{
			{At: 10 * time.Second, Kind: Partition, Fraction: 0.5},
			{At: time.Hour, Kind: Heal},
		},
		Rules: []Rule{{
			Name: "never",
			When: Condition{Metric: "app.failed", Stat: StatTotal, Op: Above, Value: 1e9},
			Do:   Action{Kind: ActHeal},
		}},
	}
	e := NewEngine(rt, newFakeView(), &fakeActuators{}, plan, nil, nil)
	e.Arm()
	k.RunFor(1000*time.Second + time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() { k.RunFor(time.Second) })
	e.mu.Lock()
	ticked := e.lastTick.Sub(e.start)
	e.mu.Unlock()
	if ticked != 1101*time.Second {
		t.Fatalf("last evaluation at +%s, want +1101s", ticked)
	}
	// An evaluation tick that re-arms the held handle retains nothing; one
	// that kept a cancel per tick would allocate it.
	if allocs != 0 {
		t.Fatalf("an evaluation tick allocates %.2f, want 0", allocs)
	}
	e.Stop()
	k.RunFor(10 * time.Second)
	if got := e.lastTick.Sub(e.start); got != ticked {
		t.Fatalf("evaluated at +%s after Stop", got)
	}
}

// TestEngineAssertions covers the three temporal kinds.
func TestEngineAssertions(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	view := newFakeView()
	asserts := []Assertion{
		{Name: "makes-progress", Kind: Eventually,
			Cond: Condition{Metric: "app.done", Stat: StatTotal, Op: Above, Value: 5}},
		{Name: "stays-calm", Kind: Always,
			Cond: Condition{Metric: "app.errors", Stat: StatTotal, Op: Below, Value: 3}},
		{Name: "reconverges", Kind: Converges, Within: time.Minute,
			Cond: Condition{Metric: "app.failed_rate", Stat: StatGauge, Op: Below, Value: 1}},
		{Name: "never-happens", Kind: Eventually,
			Cond: Condition{Metric: "app.done", Stat: StatTotal, Op: Above, Value: 1e9}},
	}
	e := NewEngine(rt, view, &fakeActuators{}, Plan{EvalEvery: time.Second}, asserts, nil)
	e.Arm()
	k.RunFor(5 * time.Second)
	view.set("app.done", 10)
	view.set("app.errors", 5) // violates stays-calm from here on
	k.RunFor(10 * time.Second)
	aerr := e.Finish()
	if aerr == nil {
		t.Fatal("Finish returned nil with violated assertions")
	}
	got := map[string]bool{}
	for _, f := range aerr.Failures {
		got[f.Name] = true
	}
	if !got["stays-calm"] || !got["never-happens"] {
		t.Errorf("missing expected failures in %v", aerr)
	}
	if got["makes-progress"] || got["reconverges"] {
		t.Errorf("passing assertions reported failed: %v", aerr)
	}
}

// TestEngineRateStat checks StatRate sees per-second counter growth.
func TestEngineRateStat(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	view := newFakeView()
	act := &fakeActuators{}
	plan := Plan{
		EvalEvery: time.Second,
		Rules: []Rule{{
			Name: "rate-kill",
			When: Condition{Metric: "app.reqs", Stat: StatRate, Op: Above, Value: 5},
			Do:   Action{Kind: ActKill, Fraction: 0.1},
		}},
	}
	e := NewEngine(rt, view, act, plan, nil, nil)
	e.Arm()
	// Grow the counter 2/s for a while: under the threshold.
	for i := 0; i < 5; i++ {
		view.set("app.reqs", uint64(2*i))
		k.RunFor(time.Second)
	}
	if act.crashes != 0 {
		t.Fatalf("rule fired at 2/s with a 5/s threshold")
	}
	// Jump 100 in one second: above it.
	view.set("app.reqs", 200)
	k.RunFor(2 * time.Second)
	if act.crashes != 1 {
		t.Fatalf("crashes = %d after rate spike, want 1", act.crashes)
	}
}

// TestRPCRules checks matching, composition and removal.
func TestRPCRules(t *testing.T) {
	r, src := new(RPCRules), new(stream.Source64).Init(3, "rpcfault", 0)
	to := transport.Addr{Host: "n1", Port: 9000}
	if drop, delay := r.Check(src, to, "get"); drop || delay != 0 {
		t.Fatalf("empty rules produced a verdict: %v %s", drop, delay)
	}
	rules := []RPCRule{{Method: "get", Delay: 5 * time.Millisecond}, {Delay: time.Millisecond}} // the second matches everything
	r.Set(rules)
	if _, delay := r.Check(src, to, "get"); delay != 6*time.Millisecond {
		t.Fatalf("delay = %s, want 6ms", delay)
	}
	if _, delay := r.Check(src, to, "put"); delay != time.Millisecond {
		t.Fatalf("delay = %s, want 1ms for non-matching method", delay)
	}
	r.Set(append(rules, RPCRule{Method: "put", Drop: 1}))
	if drop, _ := r.Check(src, to, "put"); !drop {
		t.Fatal("certain drop not applied")
	}
	r.Set(nil)
	if drop, delay := r.Check(src, to, "put"); drop || delay != 0 {
		t.Fatalf("removed rules produced a verdict: %v %s", drop, delay)
	}
}
