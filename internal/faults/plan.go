// Package faults is the fault plane: declarative fault injection,
// closed-loop trigger rules over the aggregated metric view, and metric
// assertions that turn an experiment into a pass/fail gate.
//
// The package is deliberately mechanism-free: a Plan says *what* happens
// and *when*; the Actuators interface says *how*, and is implemented by
// the scenario layer twice — over simnet hooks for simulated testbeds and
// over daemon kill/restart plus transport filters live. Everything here
// is inert until an Engine is armed, and every hook the rest of the stack
// consults is nil-checked, so an empty Plan adds no kernel events and
// keeps every simulation golden byte-identical (the schedule-neutrality
// invariant, see DESIGN.md).
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Names is one enumeration of the fault language, indexed by value:
// String, Parse and Validate read it, and so does every door.
type Names[T ~int] struct {
	noun  string // what "unknown …" messages call a value
	names []string
}

// Name is v's name (its number when v is outside the table).
func (n Names[T]) Name(v T) string {
	if n.check(v, "") != nil {
		return strconv.Itoa(int(v))
	}
	return n.names[v]
}

// Parse reads a name; an unknown one is a *PlanError.
func (n Names[T]) Parse(s string) (T, error) {
	if i := slices.Index(n.names, s); i >= 0 {
		return T(i), nil
	}
	return 0, planErr("", FieldBadValue, "unknown %s %q (want %s)", n.noun, s, n)
}

// String lists the names for messages: "a, b or c".
func (n Names[T]) String() string {
	last := len(n.names) - 1
	return strings.Join(n.names[:last], ", ") + " or " + n.names[last]
}

func (n Names[T]) check(v T, field string) error {
	if v < 0 || int(v) >= len(n.names) {
		return planErr(field, FieldBadValue, "unknown %s %d (want %s)", n.noun, int(v), n)
	}
	return nil
}

// EventKind enumerates the injectable faults.
type EventKind int

// Event kinds.
const (
	// Crash kills a fraction (or count) of the daemon population:
	// instances die, the host drops off the network.
	Crash EventKind = iota
	// Restart revives every crashed daemon with a fresh process.
	Restart
	// Partition splits the population in two groups that cannot reach
	// each other; crossing connections reset, crossing dials blackhole.
	Partition
	// Heal removes the partition.
	Heal
	// Degrade adds latency and datagram loss to every link.
	Degrade
	// Restore removes the degradation.
	Restore
	// RPCFault installs a message filter: matching outgoing RPC requests
	// are dropped (fail by timeout) or delayed.
	RPCFault
	// RPCClear removes every RPC filter.
	RPCClear
)

// EventKinds names the event kinds.
var EventKinds = Names[EventKind]{"event kind",
	[]string{"crash", "restart", "partition", "heal", "degrade", "restore", "rpc-fault", "rpc-clear"}}

func (k EventKind) String() string { return EventKinds.Name(k) }

// Event is one timed fault injection. At is relative to the instant the
// plan is armed (after deployment), so the same plan replays identically
// at any absolute start time.
type Event struct {
	At   time.Duration
	Kind EventKind

	// Fraction selects how much of the population Crash kills or
	// Partition cuts away (0 < Fraction < 1); Count is the absolute
	// alternative for Crash.
	Fraction float64
	Count    int

	// ExtraLatency and Loss parameterize Degrade.
	ExtraLatency time.Duration
	Loss         float64

	// Method filters RPCFault ("" matches every method); Drop is the
	// drop probability, Delay the added latency of surviving requests.
	Method string
	Drop   float64
	Delay  time.Duration
}

// Stat selects how a Condition reads the aggregated telemetry.
type Stat int

// Condition statistics.
const (
	// StatTotal is a counter's population-wide total.
	StatTotal Stat = iota
	// StatRate is a counter total's growth per second since the previous
	// evaluation tick (0 on the first tick).
	StatRate
	// StatGauge is a gauge's population-wide sum.
	StatGauge
	// StatMean is a histogram's mean (sum/count; 0 when empty).
	StatMean
	// StatP50/P90/P99 are histogram percentiles (bucket upper edges).
	StatP50
	StatP90
	StatP99
	// StatNodes is the number of reporting streams; Metric is ignored.
	StatNodes
)

// Stats names the condition statistics.
var Stats = Names[Stat]{"statistic",
	[]string{"total", "rate", "gauge", "mean", "p50", "p90", "p99", "nodes"}}

func (s Stat) String() string { return Stats.Name(s) }

// Op compares a condition's observed statistic against its threshold.
type Op int

// Comparison operators.
const (
	Above Op = iota
	Below
)

// Ops names the comparison operators.
var Ops = Names[Op]{"operator", []string{">", "<"}}

func (o Op) String() string { return Ops.Name(o) }

// Condition is one metric predicate: "Stat of Metric is Above/Below
// Value". Conditions are evaluated against a View on every engine tick.
type Condition struct {
	Metric string
	Stat   Stat
	Op     Op
	Value  float64
}

func (c Condition) String() string {
	return fmt.Sprintf("%s(%s) %s %g", c.Stat, c.Metric, c.Op, c.Value)
}

// ParseCondition reads the one-line form String writes:
//
//	total(chord.failed_lookups) > 10
//	rate(chord.failed_lookups) < 0.5
//	p99(chord.lookup_latency_ns) < 2000000000
//	nodes() > 100
//
// A line that does not read as a valid condition is a *PlanError of class
// FieldBadValue.
func ParseCondition(s string) (c Condition, err error) {
	open, closing := strings.IndexByte(s, '('), strings.IndexByte(s, ')')
	if open <= 0 || closing < open {
		return c, planErr("", FieldBadValue, "want \"stat(metric) > value\", got %q", s)
	}
	if c.Stat, err = Stats.Parse(strings.TrimSpace(s[:open])); err != nil {
		return c, err
	}
	c.Metric = strings.TrimSpace(s[open+1 : closing])
	if err := c.Validate(); err != nil { // the metric rules: Op is still Above
		return c, planErr("", FieldBadValue, "%s", err.(*PlanError).Msg)
	}
	rest := strings.TrimSpace(s[closing+1:])
	for c.Op = range Op(len(Ops.names)) {
		if num, ok := strings.CutPrefix(rest, c.Op.String()); ok {
			num = strings.TrimSpace(num)
			if c.Value, err = strconv.ParseFloat(num, 64); err != nil {
				return c, planErr("", FieldBadValue, "want a numeric threshold, got %q", num)
			}
			return c, nil
		}
	}
	return c, planErr("", FieldBadValue, "want %s after %s(%s), got %q", Ops, c.Stat, c.Metric, rest)
}

// Validate reports an unknown statistic or operator, a missing metric, or
// a metric given to nodes(), as a *PlanError.
func (c Condition) Validate() error {
	if err := Stats.check(c.Stat, "stat"); err != nil {
		return err
	}
	switch {
	case c.Metric == "" && c.Stat != StatNodes:
		return planErr("metric", FieldMissing, "%s() needs a metric name", c.Stat)
	case c.Metric != "" && c.Stat == StatNodes:
		return planErr("metric", FieldBadValue, "%s() takes no metric", c.Stat)
	}
	return Ops.check(c.Op, "op")
}

// View is the metric surface conditions read — implemented by
// metrics.Aggregator. All methods must be safe to call from engine ticks.
type View interface {
	CounterTotal(name string) uint64
	GaugeSum(name string) int64
	HistStats(name string) (count uint64, sum int64)
	HistQuantile(name string, p float64) int64
	Nodes() int
}

// ActionKind enumerates what a fired trigger does.
type ActionKind int

// Trigger actions.
const (
	// ActKill kills Fraction (or Count) of the population.
	ActKill ActionKind = iota
	// ActHeal heals the active partition and restores degraded links.
	ActHeal
	// ActGrow deploys Count additional instances of the scenario's
	// first application.
	ActGrow
	// ActInject applies an arbitrary Event.
	ActInject
)

// ActionKinds names the trigger actions; heal shares the Heal event's
// name.
var ActionKinds = Names[ActionKind]{"action",
	[]string{"kill", EventKinds.names[Heal], "grow", "inject"}}

func (k ActionKind) String() string { return ActionKinds.Name(k) }

// Action is a fired rule's effect.
type Action struct {
	Kind     ActionKind
	Fraction float64 // ActKill
	Count    int     // ActKill / ActGrow
	Event    *Event  // ActInject
}

func (a Action) String() string {
	switch {
	case a.Kind == ActKill && a.Count <= 0:
		return fmt.Sprintf("%s %g%%", a.Kind, a.Fraction*100)
	case a.Kind == ActKill || a.Kind == ActGrow:
		return fmt.Sprintf("%s %d", a.Kind, a.Count)
	case a.Kind == ActInject && a.Event != nil:
		return fmt.Sprintf("%s %s", a.Kind, a.Event.Kind)
	}
	return a.Kind.String()
}

// ActionForms lists the one-line action forms, for messages.
const ActionForms = `heal, "kill n", "kill p%" or "grow n"`

// ParseAction reads the one-line form String writes: "heal", "kill 3",
// "kill 50%" or "grow 5". A line that does not read as a valid action is
// a *PlanError of class FieldBadValue; an inject action, whose event has
// no one-line form, is one of class FieldUnsupported.
func ParseAction(s string) (a Action, err error) {
	bad := func(format string, args ...any) (Action, error) {
		return a, planErr("", FieldBadValue, format, args...)
	}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return bad("want %s, got %q", ActionForms, s)
	}
	if a.Kind, err = ActionKinds.Parse(fields[0]); err != nil {
		return bad("unknown action %q (want %s)", s, ActionForms)
	}
	switch {
	case a.Kind == ActInject:
		return a, planErr("", FieldUnsupported, "inject actions are not expressible in config documents yet")
	case a.Kind == ActHeal && len(fields) != 1:
		return bad("%s takes no argument, got %q", a.Kind, s)
	case a.Kind == ActHeal:
		return a, nil
	case len(fields) != 2 && a.Kind == ActKill:
		return bad("want \"kill <count>\" or \"kill <percent>%%\", got %q", s)
	case len(fields) != 2:
		return bad("want \"grow <count>\", got %q", s)
	}
	arg := fields[1]
	if pct, ok := strings.CutSuffix(arg, "%"); ok && a.Kind == ActKill {
		v, err := strconv.ParseFloat(pct, 64)
		if a.Fraction = v / 100; err != nil || a.Validate() != nil {
			return bad("kill percentage must be in (0%%, 100%%), got %q", arg)
		}
		return a, nil
	}
	if a.Count, err = strconv.Atoi(arg); err != nil || a.Validate() != nil {
		return bad("%s count must be a positive integer, got %q", a.Kind, arg)
	}
	return a, nil
}

// Validate reports a kill with no target or a fraction outside (0, 1), a
// grow by less than one, or an inject without a valid event.
func (a Action) Validate() error {
	if err := ActionKinds.check(a.Kind, "kind"); err != nil {
		return err
	}
	switch a.Kind {
	case ActKill:
		switch {
		case a.Count < 0:
			return nonNegative(a.Count, "count")
		case a.Count == 0 && a.Fraction == 0:
			return planErr("", FieldMissing, "kill needs a fraction or a count")
		case a.Count == 0 && !(a.Fraction > 0 && a.Fraction < 1):
			return planErr("fraction", FieldOutOfRange, "kill fraction %g is outside (0, 1)", a.Fraction)
		}
	case ActGrow:
		if a.Count < 1 {
			return planErr("count", FieldOutOfRange, "grow count %d is not positive", a.Count)
		}
	case ActInject:
		if a.Event == nil {
			return planErr("event", FieldMissing, "inject needs an event")
		}
		return Within("event", a.Event.Validate())
	}
	return nil
}

// Rule is one closed-loop trigger: when the condition holds For long
// enough, the action fires through the actuators (the ACME model — rules
// over sensors driving actuators through the deployment substrate).
type Rule struct {
	// Name labels the rule in firing records and logs.
	Name string
	// When is the condition to watch.
	When Condition
	// For is how long the condition must hold continuously before the
	// rule fires (0 = a single evaluation tick suffices).
	For time.Duration
	// Do is the fired effect.
	Do Action
	// Cooldown is the minimum spacing between consecutive fires.
	Cooldown time.Duration
	// MaxFires bounds how often the rule may fire (0 = once).
	MaxFires int
}

// Firing records one rule activation.
type Firing struct {
	Rule   string
	At     time.Time
	Action string
}

// AssertKind selects an assertion's temporal semantics.
type AssertKind int

// Assertion kinds.
const (
	// Eventually passes if the condition holds at any evaluation tick
	// (within Within of arming, when set).
	Eventually AssertKind = iota
	// Always fails on the first tick (after the After grace period)
	// where the condition does not hold — "stays-below" is Always with a
	// Below condition.
	Always
	// Converges passes if the condition starts holding within Within of
	// arming and then holds at every later tick — "converges-within".
	Converges
)

// AssertKinds names the assertion kinds.
var AssertKinds = Names[AssertKind]{"assertion kind",
	[]string{"eventually", "always", "converges"}}

func (k AssertKind) String() string { return AssertKinds.Name(k) }

// Assertion is one metric predicate a run must satisfy; violations turn
// into a typed *AssertionError from Scenario.Run (the Dfuntest model —
// distributed tests that fail like unit tests).
type Assertion struct {
	// Name labels the assertion in failure reports.
	Name string
	// Cond is the predicate.
	Cond Condition
	// Kind is the temporal semantics.
	Kind AssertKind
	// Within bounds Eventually/Converges (0 = the whole run).
	Within time.Duration
	// After is a grace period before Always starts checking.
	After time.Duration
}

// AssertionFailure is one violated assertion.
type AssertionFailure struct {
	Name   string
	Kind   AssertKind
	Detail string
}

func (f AssertionFailure) String() string {
	return fmt.Sprintf("%s (%s): %s", f.Name, f.Kind, f.Detail)
}

// AssertionError enumerates every assertion a run violated.
type AssertionError struct {
	Failures []AssertionFailure
}

func (e *AssertionError) Error() string {
	if len(e.Failures) == 0 {
		return "faults: assertions failed"
	}
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = f.String()
	}
	return fmt.Sprintf("faults: %d assertion(s) failed: %s", len(e.Failures), strings.Join(parts, "; "))
}

// Plan is a scenario's declarative fault schedule: timed events plus
// closed-loop rules. The zero Plan is empty and arms nothing.
type Plan struct {
	// Events are the timed injections, applied in At order.
	Events []Event
	// Rules are the closed-loop triggers.
	Rules []Rule
	// EvalEvery is the trigger/assertion evaluation cadence (default 5s).
	EvalEvery time.Duration
}

// Empty reports whether the plan injects nothing and watches nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 && len(p.Rules) == 0 }

// Validate reports the first part of the plan that cannot run, as a
// *PlanError naming it ("events[2].fraction") — the fault language's one
// validity check, which the config compiler and Scenario.Start share.
func (p Plan) Validate() error {
	for i, ev := range p.Events {
		if err := ev.Validate(); err != nil {
			return Within(fmt.Sprintf("events[%d]", i), err)
		}
	}
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return Within(fmt.Sprintf("rules[%d]", i), err)
		}
	}
	return nonNegative(p.EvalEvery, "eval_every")
}

// Validate reports an unknown kind, a fraction or probability outside
// 0..1, a negative count or duration, a crash with no target, or a
// partition that cuts nobody or everybody.
func (ev Event) Validate() error {
	err := cmp.Or(EventKinds.check(ev.Kind, "kind"), nonNegative(ev.At, "at"),
		fraction(ev.Fraction, "fraction"), nonNegative(ev.Count, "count"),
		nonNegative(ev.ExtraLatency, "extra_latency"), fraction(ev.Loss, "loss"),
		fraction(ev.Drop, "drop"), nonNegative(ev.Delay, "delay"))
	switch {
	case err != nil:
		return err
	case ev.Kind == Crash && ev.Fraction == 0 && ev.Count == 0:
		return planErr("", FieldMissing, "crash needs a fraction or a count")
	case ev.Kind == Partition && (ev.Fraction <= 0 || ev.Fraction >= 1):
		return planErr("fraction", FieldOutOfRange, "partition needs a fraction strictly between 0 and 1")
	}
	return nil
}

// Validate checks the rule's condition, action and durations.
func (r Rule) Validate() error {
	return cmp.Or(Within("when", r.When.Validate()), Within("do", r.Do.Validate()),
		nonNegative(r.For, "for"), nonNegative(r.Cooldown, "cooldown"), nonNegative(r.MaxFires, "max_fires"))
}

// Validate checks the assertion's kind, condition and durations.
func (a Assertion) Validate() error {
	return cmp.Or(AssertKinds.check(a.Kind, "kind"), Within("cond", a.Cond.Validate()),
		nonNegative(a.Within, "within"), nonNegative(a.After, "after"))
}

// Class says what is wrong with a field. Its names are the config
// plane's error codes for the same failures.
type Class int

// Field classes.
const (
	FieldMissing Class = iota
	FieldOutOfRange
	FieldBadValue
	FieldUnsupported
)

var classes = Names[Class]{"class", []string{"missing", "out_of_range", "bad_value", "unsupported"}}

func (c Class) String() string { return classes.Name(c) }

// PlanError is the fault language's one typed error: a part that cannot
// run, or a one-line form that does not parse. Field is the offender's
// path below the value checked, empty when the value itself is at fault.
type PlanError struct {
	Field string
	Class Class
	Msg   string
}

func (e *PlanError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("faults: %s: %s", e.Class, e.Msg)
	}
	return fmt.Sprintf("faults: %s at %s: %s", e.Class, e.Field, e.Msg)
}

// Within places a part's *PlanError under path ("events[2]" and
// "fraction" read "events[2].fraction"); nil and other errors pass.
func Within(path string, err error) error {
	pe, ok := err.(*PlanError)
	if !ok {
		return err
	}
	if pe.Field != "" {
		path += "." + pe.Field
	}
	return &PlanError{path, pe.Class, pe.Msg}
}

func planErr(field string, class Class, format string, args ...any) error {
	return &PlanError{field, class, fmt.Sprintf(format, args...)}
}

// fraction refuses f outside 0..1, NaN included.
func fraction(f float64, field string) error {
	if f >= 0 && f <= 1 {
		return nil
	}
	return planErr(field, FieldOutOfRange, "%s %g is outside 0..1", field, f)
}

func nonNegative[T int | time.Duration](v T, field string) error {
	if v >= 0 {
		return nil
	}
	return planErr(field, FieldOutOfRange, "%s %v is negative", field, v)
}

// Actuators is how the engine touches the world. The scenario layer
// implements it over simnet (simulated testbeds) and over daemon
// kill/restart plus transport filters (live testbeds). Implementations
// report faults they cannot express (e.g. link degradation on a live
// testbed) as errors, which the engine surfaces through its log hook.
type Actuators interface {
	// Crash kills fraction (or count) of the alive population.
	Crash(fraction float64, count int) (killed int, err error)
	// Restart revives every crashed daemon.
	Restart() (revived int, err error)
	// Partition cuts fraction of the population away from the rest.
	Partition(fraction float64) error
	// Heal removes the partition.
	Heal() error
	// Degrade adds latency/loss to every link.
	Degrade(extraLatency time.Duration, loss float64) error
	// Restore removes the degradation.
	Restore() error
	// SetRPCFault installs a drop/delay filter on outgoing RPC requests.
	SetRPCFault(method string, drop float64, delay time.Duration) error
	// ClearRPCFault removes every RPC filter.
	ClearRPCFault() error
	// Grow deploys count additional instances.
	Grow(count int) error
}

// Victims is how many of population daemons a Crash or Partition takes:
// count when positive (Crash only), else fraction of the population
// rounded to the nearest — the one selection rule of the actuators and
// the operator's fault drills. A count may exceed the population; the
// caller caps or refuses it.
func Victims(fraction float64, count, population int) int {
	if count > 0 {
		return count
	}
	return int(math.Round(fraction * float64(population)))
}
