package splay_test

import (
	"context"
	"errors"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/faults"
)

// invalidPlans are the config compile corpus's fault error cases in Go
// form, each with the field and class its refusal must name, plus an
// out-of-table event kind and an inject without an event. Two corpus
// cases have no Go form: the zero FaultPlan is Go's "no faults", and an
// Assertion holds exactly one Kind.
var invalidPlans = []struct {
	name   string
	plan   splay.FaultPlan
	assert []splay.Assertion
	field  string
	class  faults.Class
}{
	{name: "event at before arming",
		plan:  splay.FaultPlan{Events: []splay.FaultEvent{splay.HealAt(-time.Second)}},
		field: "faults.events[0].at", class: faults.FieldOutOfRange},
	{name: "event unknown kind",
		plan:  splay.FaultPlan{Events: []splay.FaultEvent{{At: time.Second, Kind: 42}}},
		field: "faults.events[0].kind", class: faults.FieldBadValue},
	{name: "crash needs a target",
		plan:  splay.FaultPlan{Events: []splay.FaultEvent{splay.HealAt(0), {At: time.Second, Kind: splay.FaultCrash}}},
		field: "faults.events[1]", class: faults.FieldMissing},
	{name: "partition fraction bounds",
		plan:  splay.FaultPlan{Events: []splay.FaultEvent{splay.PartitionAt(time.Second, 1.5)}},
		field: "faults.events[0].fraction", class: faults.FieldOutOfRange},
	{name: "partition cuts everybody",
		plan:  splay.FaultPlan{Events: []splay.FaultEvent{splay.PartitionAt(time.Second, 1)}},
		field: "faults.events[0].fraction", class: faults.FieldOutOfRange},
	{name: "rule missing when",
		plan:  rulePlan(splay.TriggerCondition{}, splay.TriggerAction{Kind: splay.ActHeal}),
		field: "faults.rules[0].when.metric", class: faults.FieldMissing},
	{name: "rule bad operator",
		plan:  rulePlan(splay.Metric("m", splay.StatTotal, 7, 1), splay.TriggerAction{Kind: splay.ActHeal}),
		field: "faults.rules[0].when.op", class: faults.FieldBadValue},
	{name: "rule unknown stat",
		plan:  rulePlan(splay.Metric("m", 42, splay.Above, 1), splay.TriggerAction{Kind: splay.ActHeal}),
		field: "faults.rules[0].when.stat", class: faults.FieldBadValue},
	{name: "nodes takes no metric",
		plan:  rulePlan(splay.Metric("x", splay.StatNodes, splay.Above, 1), splay.TriggerAction{Kind: splay.ActHeal}),
		field: "faults.rules[0].when.metric", class: faults.FieldBadValue},
	{name: "inject an invalid event",
		plan:  rulePlan(nodesAbove0, splay.TriggerAction{Kind: splay.ActInject, Event: &splay.FaultEvent{Kind: splay.FaultCrash}}),
		field: "faults.rules[0].do.event", class: faults.FieldMissing},
	{name: "inject without an event",
		plan:  rulePlan(nodesAbove0, splay.TriggerAction{Kind: splay.ActInject}),
		field: "faults.rules[0].do.event", class: faults.FieldMissing},
	{name: "kill percent bounds",
		plan:  rulePlan(nodesAbove0, splay.TriggerAction{Kind: splay.ActKill, Fraction: 1.5}),
		field: "faults.rules[0].do.fraction", class: faults.FieldOutOfRange},
	{name: "assert unknown kind",
		assert: []splay.Assertion{{Name: "a", Kind: 42, Cond: nodesAbove0}},
		field:  "assert[0].kind", class: faults.FieldBadValue},
	{name: "assert condition",
		assert: []splay.Assertion{splay.EventuallyHolds("ok", nodesAbove0, 0), splay.EventuallyHolds("a", splay.Metric("", splay.StatP99, splay.Below, 1), 0)},
		field:  "assert[1].cond.metric", class: faults.FieldMissing},
}

var nodesAbove0 = splay.Metric("", splay.StatNodes, splay.Above, 0)

func rulePlan(when splay.TriggerCondition, do splay.TriggerAction) splay.FaultPlan {
	return splay.FaultPlan{Rules: []splay.TriggerRule{{Name: "r", When: when, Do: do}}}
}

// TestInvalidFaultPlansRefusedAtEveryDoor: a plan that cannot run fails
// Start with a typed error naming its field before anything is
// provisioned — built in Go, and through wire JSON alike.
func TestInvalidFaultPlansRefusedAtEveryDoor(t *testing.T) {
	for _, tc := range invalidPlans {
		sc := splay.Scenario{
			Testbed: splay.Uniform(4, time.Millisecond, 0),
			Collect: splay.Collect{Metrics: true},
			Apps:    []splay.AppSpec{{Name: "chord", Nodes: 4}},
			Faults:  tc.plan,
			Assert:  tc.assert,
		}
		raw, err := sc.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		wired, err := splay.UnmarshalScenario(raw)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		for door, sc := range map[string]splay.Scenario{"go": sc, "wire": wired} {
			sess, err := sc.Start(context.Background())
			if sess != nil {
				sess.Stop()
			}
			var pe *splay.FaultPlanError
			if !errors.As(err, &pe) || pe.Field != tc.field || pe.Class != tc.class {
				t.Errorf("%s (%s door): Start = %v, want a %s error at %s", tc.name, door, err, tc.class, tc.field)
			}
		}
	}
}
