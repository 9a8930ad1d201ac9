package splay

import (
	"time"

	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/faults"
)

// Fault-plane vocabulary, re-exported as aliases so scenarios declare
// fault schedules, closed-loop triggers and assertions without importing
// internal packages. A Scenario with a zero FaultPlan and no assertions
// behaves (and schedules) exactly as before the fault plane existed.
type (
	// FaultPlan is a scenario's declarative fault schedule: timed
	// events plus closed-loop trigger rules.
	FaultPlan = faults.Plan
	// FaultEvent is one timed fault injection (At relative to arming,
	// which happens right after deployment).
	FaultEvent = faults.Event
	// FaultKind enumerates the injectable faults.
	FaultKind = faults.EventKind
	// TriggerRule is one closed-loop trigger: when a metric condition
	// holds for long enough, an action fires through the fault plane.
	TriggerRule = faults.Rule
	// TriggerCondition is one metric predicate over the aggregated view.
	TriggerCondition = faults.Condition
	// TriggerAction is a fired rule's effect.
	TriggerAction = faults.Action
	// TriggerStat selects how a condition reads the telemetry.
	TriggerStat = faults.Stat
	// TriggerOp compares the observed statistic against the threshold.
	TriggerOp = faults.Op
	// Firing records one rule activation (see Session.Firings).
	Firing = faults.Firing
	// Assertion is one metric predicate a run must satisfy.
	Assertion = faults.Assertion
	// AssertKind selects an assertion's temporal semantics.
	AssertKind = faults.AssertKind
	// AssertionError enumerates every assertion a run violated; Run
	// returns it alongside the (still valid) Result.
	AssertionError = faults.AssertionError
	// AssertionFailure is one violated assertion.
	AssertionFailure = faults.AssertionFailure
	// FaultPlanError is a fault plan, trigger rule or assertion that
	// cannot run (Start refuses it before provisioning), or a condition
	// or action line that does not parse. Field names the offender
	// ("faults.events[0].fraction", "assert[1].cond.metric").
	FaultPlanError = faults.PlanError
	// Backoff is a jittered exponential backoff schedule (daemon
	// reconnect, RPC redial pacing).
	Backoff = faults.Backoff
	// DeployError is a failed deployment's full account: every daemon
	// that failed a phase and how many slots stayed unplaced.
	DeployError = controller.DeployError
	// DeployFailure is one daemon's failure during one deploy phase.
	DeployFailure = controller.DeployFailure
)

// Fault event kinds.
const (
	FaultCrash     = faults.Crash
	FaultRestart   = faults.Restart
	FaultPartition = faults.Partition
	FaultHeal      = faults.Heal
	FaultDegrade   = faults.Degrade
	FaultRestore   = faults.Restore
	FaultRPC       = faults.RPCFault
	FaultRPCClear  = faults.RPCClear
)

// Trigger condition statistics.
const (
	StatTotal = faults.StatTotal
	StatRate  = faults.StatRate
	StatGauge = faults.StatGauge
	StatMean  = faults.StatMean
	StatP50   = faults.StatP50
	StatP90   = faults.StatP90
	StatP99   = faults.StatP99
	StatNodes = faults.StatNodes
)

// Trigger comparison operators.
const (
	Above = faults.Above
	Below = faults.Below
)

// Trigger action kinds.
const (
	ActKill   = faults.ActKill
	ActHeal   = faults.ActHeal
	ActGrow   = faults.ActGrow
	ActInject = faults.ActInject
)

// Assertion kinds.
const (
	AssertEventually = faults.Eventually
	AssertAlways     = faults.Always
	AssertConverges  = faults.Converges
)

// CrashAt kills a fraction (0 < f < 1) of the daemon population at +at.
func CrashAt(at time.Duration, fraction float64) FaultEvent {
	return FaultEvent{At: at, Kind: FaultCrash, Fraction: fraction}
}

// CrashNAt kills exactly count daemons at +at.
func CrashNAt(at time.Duration, count int) FaultEvent {
	return FaultEvent{At: at, Kind: FaultCrash, Count: count}
}

// RestartAt revives every crashed daemon at +at.
func RestartAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, Kind: FaultRestart}
}

// PartitionAt cuts a fraction of the population away from the rest at
// +at: crossing connections reset, crossing dials blackhole.
func PartitionAt(at time.Duration, fraction float64) FaultEvent {
	return FaultEvent{At: at, Kind: FaultPartition, Fraction: fraction}
}

// HealAt removes the partition at +at.
func HealAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, Kind: FaultHeal}
}

// DegradeAt adds latency and datagram loss to every daemon link at +at.
func DegradeAt(at time.Duration, extraLatency time.Duration, loss float64) FaultEvent {
	return FaultEvent{At: at, Kind: FaultDegrade, ExtraLatency: extraLatency, Loss: loss}
}

// RestoreAt removes the degradation at +at.
func RestoreAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, Kind: FaultRestore}
}

// RPCFaultAt installs a message filter at +at: outgoing RPC requests
// matching method ("" = all) are dropped with probability drop and the
// survivors delayed by delay.
func RPCFaultAt(at time.Duration, method string, drop float64, delay time.Duration) FaultEvent {
	return FaultEvent{At: at, Kind: FaultRPC, Method: method, Drop: drop, Delay: delay}
}

// RPCClearAt removes every RPC filter at +at.
func RPCClearAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, Kind: FaultRPCClear}
}

// Metric builds the condition "stat(name) op value" for trigger rules
// and assertions.
func Metric(name string, stat TriggerStat, op TriggerOp, value float64) TriggerCondition {
	return TriggerCondition{Metric: name, Stat: stat, Op: op, Value: value}
}

// ConvergesWithin asserts cond starts holding within the deadline and
// then holds at every later evaluation tick until the end of the run.
func ConvergesWithin(name string, cond TriggerCondition, within time.Duration) Assertion {
	return Assertion{Name: name, Cond: cond, Kind: AssertConverges, Within: within}
}

// EventuallyHolds asserts cond holds at some evaluation tick within the
// deadline (0 = any time before the run ends).
func EventuallyHolds(name string, cond TriggerCondition, within time.Duration) Assertion {
	return Assertion{Name: name, Cond: cond, Kind: AssertEventually, Within: within}
}

// StaysBelow asserts stat(metric) < value at every evaluation tick after
// the grace period.
func StaysBelow(name, metric string, stat TriggerStat, value float64, after time.Duration) Assertion {
	return Assertion{Name: name, Cond: TriggerCondition{Metric: metric, Stat: stat, Op: Below, Value: value}, Kind: AssertAlways, After: after}
}
