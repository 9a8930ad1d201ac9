package faults

import (
	"fmt"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
)

// Engine executes a Plan: it schedules the timed events and, when the
// plan has rules or the caller registered assertions, runs a periodic
// evaluation tick over the metric View. The engine is created at session
// start but inert until Arm — arming is what pins the plan's time origin
// to "right after deployment", so a plan replays identically regardless
// of how long provisioning took.
//
// Everything the engine does rides the session's Runtime: in simulation
// events and ticks are kernel tasks in virtual time, so two runs of the
// same seeded plan are bit-identical; live they are goroutines.
type Engine struct {
	rt   core.Runtime
	view View
	act  Actuators
	plan Plan
	logf func(format string, args ...any)

	mu       sync.Mutex
	armed    bool
	stopped  bool
	start    time.Time
	rules    []*ruleState
	checks   []*assertState
	firings  []Firing
	events   []core.Timer // the plan's timed events
	next     core.Timer   // the pending evaluation tick
	lastTick time.Time
}

// ruleState tracks one rule across ticks.
type ruleState struct {
	rule      Rule
	cond      condState
	heldSince time.Time
	holding   bool
	fires     int
	lastFire  time.Time
}

// assertState tracks one assertion across ticks.
type assertState struct {
	a         Assertion
	cond      condState
	everHeld  bool
	firstHeld time.Duration // offset of the first tick that ever held (-1 = never)
	heldAt    time.Duration // offset of the current holding streak's first tick
	holding   bool
	violated  bool // Always: condition failed after the grace period
	detail    string
	lastVal   float64
}

// condState carries the previous sample StatRate needs.
type condState struct {
	prev    float64
	prevAt  time.Time
	sampled bool
}

// NewEngine builds an engine over the session's runtime, metric view and
// actuators. The plan and every assertion must Validate, and view may be
// nil only when the plan has no rules and asserts is empty (both enforced
// by the scenario layer); logf may be nil.
func NewEngine(rt core.Runtime, view View, act Actuators, plan Plan, asserts []Assertion, logf func(string, ...any)) *Engine {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &Engine{rt: rt, view: view, act: act, plan: plan, logf: logf}
	for _, r := range plan.Rules {
		e.rules = append(e.rules, &ruleState{rule: r})
	}
	for _, a := range asserts {
		e.checks = append(e.checks, &assertState{a: a, firstHeld: -1})
	}
	return e
}

// Arm starts the plan relative to now: timed events are scheduled and,
// when there is anything to evaluate, the tick loop begins. Idempotent.
func (e *Engine) Arm() {
	e.mu.Lock()
	if e.armed || e.stopped {
		e.mu.Unlock()
		return
	}
	e.armed = true
	e.start = e.rt.Now()
	e.lastTick = e.start
	for _, ev := range e.plan.Events {
		// Timer callbacks fire on the dispatch path, where blocking
		// primitives are illegal in simulation; actuators may park
		// (restart dials, grow deploys), so application hops to a task.
		e.events = append(e.events, e.rt.After(ev.At, func() { e.rt.Go(func() { e.apply(ev) }) }))
	}
	e.mu.Unlock()
	if len(e.rules) > 0 || len(e.checks) > 0 {
		every := e.plan.EvalEvery
		if every <= 0 {
			every = 5 * time.Second
		}
		e.tickLoop(every)
	}
}

// tickLoop re-arms one evaluation timer at a time. The delay is fixed, not
// the rate: the timer hops to a task (fired actions may block, see Arm),
// and the task re-arms only after tick() returns, so evaluations never
// overlap. The callbacks are bound once and the engine holds only the
// pending tick's handle, so re-arming allocates nothing.
func (e *Engine) tickLoop(every time.Duration) {
	var arm func()
	run := func() {
		e.tick()
		arm()
	}
	fire := func() { e.rt.Go(run) }
	arm = func() {
		e.mu.Lock()
		if !e.stopped {
			e.next = e.rt.After(every, fire)
		}
		e.mu.Unlock()
	}
	arm()
}

// Stop cancels scheduled events and ticks. Finish implies it.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.stopped = true
	for _, t := range e.events {
		t.Stop()
	}
	e.events = nil
	e.next.Stop()
}

// Firings returns the rule activations so far, in firing order.
func (e *Engine) Firings() []Firing {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Firing(nil), e.firings...)
}

// eval reads one condition's statistic; holds reports the comparison.
func (e *Engine) eval(c Condition, cs *condState, now time.Time) (val float64, holds bool) {
	switch c.Stat {
	case StatTotal:
		val = float64(e.view.CounterTotal(c.Metric))
	case StatRate:
		cur := float64(e.view.CounterTotal(c.Metric))
		if cs.sampled {
			if dt := now.Sub(cs.prevAt).Seconds(); dt > 0 {
				val = (cur - cs.prev) / dt
			}
		}
		cs.prev, cs.prevAt, cs.sampled = cur, now, true
	case StatGauge:
		val = float64(e.view.GaugeSum(c.Metric))
	case StatMean:
		count, sum := e.view.HistStats(c.Metric)
		if count > 0 {
			val = float64(sum) / float64(count)
		}
	case StatP50:
		val = float64(e.view.HistQuantile(c.Metric, 50))
	case StatP90:
		val = float64(e.view.HistQuantile(c.Metric, 90))
	case StatP99:
		val = float64(e.view.HistQuantile(c.Metric, 99))
	case StatNodes:
		val = float64(e.view.Nodes())
	}
	if c.Op == Below {
		return val, val < c.Value
	}
	return val, val > c.Value
}

// tick evaluates every rule and assertion once. It runs as a runtime
// task; actions fire synchronously inside it (actuator calls may block —
// Grow deploys through the controller — which only delays later ticks,
// never drops them).
func (e *Engine) tick() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	now := e.rt.Now()
	e.lastTick = now
	type pendingAction struct {
		rule   string
		action Action
	}
	var fire []pendingAction
	for _, rs := range e.rules {
		val, holds := e.eval(rs.rule.When, &rs.cond, now)
		if !holds {
			rs.holding = false
			continue
		}
		if !rs.holding {
			rs.holding = true
			rs.heldSince = now
		}
		if now.Sub(rs.heldSince) < rs.rule.For {
			continue
		}
		max := rs.rule.MaxFires
		if max <= 0 {
			max = 1
		}
		if rs.fires >= max {
			continue
		}
		if rs.fires > 0 && rs.rule.Cooldown > 0 && now.Sub(rs.lastFire) < rs.rule.Cooldown {
			continue
		}
		rs.fires++
		rs.lastFire = now
		e.firings = append(e.firings, Firing{Rule: rs.rule.Name, At: now, Action: rs.rule.Do.String()})
		e.logf("faults: rule %q fired (%s, observed %g): %s", rs.rule.Name, rs.rule.When, val, rs.rule.Do)
		fire = append(fire, pendingAction{rule: rs.rule.Name, action: rs.rule.Do})
	}
	e.evalAsserts(now)
	e.mu.Unlock()

	for _, p := range fire {
		if err := e.doAction(p.action); err != nil {
			e.logf("faults: rule %q action %s: %v", p.rule, p.action, err)
		}
	}
}

// evalAsserts advances every assertion's state machine. Called under mu.
func (e *Engine) evalAsserts(now time.Time) {
	offset := now.Sub(e.start)
	for _, as := range e.checks {
		val, holds := e.eval(as.a.Cond, &as.cond, now)
		as.lastVal = val
		switch as.a.Kind {
		case Eventually, Converges:
			if holds {
				if !as.holding {
					as.holding = true
					as.heldAt = offset
				}
				if as.firstHeld < 0 {
					as.firstHeld = offset
				}
				as.everHeld = true
			} else {
				as.holding = false
			}
		case Always:
			if !holds && offset >= as.a.After && !as.violated {
				as.violated = true
				as.detail = fmt.Sprintf("violated at +%s (observed %g, want %s)", offset, val, as.a.Cond)
			}
		}
	}
}

// Finish runs one final evaluation, stops the engine, and returns the
// violated assertions as a typed error (nil when everything passed).
func (e *Engine) Finish() *AssertionError {
	e.mu.Lock()
	armed := e.armed
	e.mu.Unlock()
	if !armed {
		return nil
	}
	// A last evaluation so assertions observe the end state even if the
	// run window was not a multiple of the evaluation period.
	e.mu.Lock()
	if !e.stopped && (len(e.rules) > 0 || len(e.checks) > 0) {
		now := e.rt.Now()
		if now.After(e.lastTick) {
			e.lastTick = now
			e.evalAsserts(now)
		}
	}
	e.mu.Unlock()
	e.Stop()

	e.mu.Lock()
	defer e.mu.Unlock()
	var fails []AssertionFailure
	for _, as := range e.checks {
		if f, ok := as.verdict(); !ok {
			fails = append(fails, f)
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return &AssertionError{Failures: fails}
}

// verdict resolves one assertion at the end of the run.
func (as *assertState) verdict() (AssertionFailure, bool) {
	a := as.a
	fail := func(detail string) (AssertionFailure, bool) {
		return AssertionFailure{Name: a.Name, Kind: a.Kind, Detail: detail}, false
	}
	switch a.Kind {
	case Eventually:
		if !as.everHeld {
			return fail(fmt.Sprintf("never held (%s, last observed %g)", a.Cond, as.lastVal))
		}
		if a.Within > 0 && as.firstHeld > a.Within {
			return fail(fmt.Sprintf("first held at +%s, after the %s deadline", as.firstHeld, a.Within))
		}
	case Always:
		if as.violated {
			return fail(as.detail)
		}
	case Converges:
		if !as.holding {
			return fail(fmt.Sprintf("did not hold at the end of the run (%s, last observed %g)", a.Cond, as.lastVal))
		}
		if a.Within > 0 && as.heldAt > a.Within {
			return fail(fmt.Sprintf("converged at +%s, after the %s deadline", as.heldAt, a.Within))
		}
	}
	return AssertionFailure{}, true
}

// apply executes one timed event through the actuators, logging the
// outcome either way (fault injection is experiment machinery: silent
// failure would invalidate results invisibly).
func (e *Engine) apply(ev Event) {
	if err := e.applyEvent(ev); err != nil {
		e.logf("faults: %s at +%s: %v", ev.Kind, ev.At, err)
		return
	}
	e.logf("faults: %s applied at +%s", ev.Kind, ev.At)
}

func (e *Engine) applyEvent(ev Event) error {
	switch ev.Kind {
	case Crash:
		_, err := e.act.Crash(ev.Fraction, ev.Count)
		return err
	case Restart:
		_, err := e.act.Restart()
		return err
	case Partition:
		return e.act.Partition(ev.Fraction)
	case Heal:
		return e.act.Heal()
	case Degrade:
		return e.act.Degrade(ev.ExtraLatency, ev.Loss)
	case Restore:
		return e.act.Restore()
	case RPCFault:
		return e.act.SetRPCFault(ev.Method, ev.Drop, ev.Delay)
	case RPCClear:
		return e.act.ClearRPCFault()
	}
	return fmt.Errorf("faults: unknown event kind %d", int(ev.Kind))
}

// doAction executes one fired rule's effect.
func (e *Engine) doAction(a Action) error {
	switch a.Kind {
	case ActKill:
		_, err := e.act.Crash(a.Fraction, a.Count)
		return err
	case ActHeal:
		if err := e.act.Heal(); err != nil {
			return err
		}
		return e.act.Restore()
	case ActGrow:
		return e.act.Grow(a.Count)
	case ActInject:
		return e.applyEvent(*a.Event)
	}
	return fmt.Errorf("faults: unknown action kind %d", int(a.Kind))
}
