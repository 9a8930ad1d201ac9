package faults

import (
	"errors"
	"testing"
)

// TestNamesRoundTrip: every name in every table parses back to its
// value, and a value outside the table neither parses nor validates.
func TestNamesRoundTrip(t *testing.T) {
	roundTrip(t, EventKinds, 8)
	roundTrip(t, Stats, 8)
	roundTrip(t, Ops, 2)
	roundTrip(t, ActionKinds, 4)
	roundTrip(t, AssertKinds, 3)
	if got := EventKind(42).String(); got != "42" {
		t.Errorf("EventKind(42) = %q", got)
	}
	if err := EventKinds.check(42, "kind"); err == nil {
		t.Error("EventKind(42) validates")
	}
}

func roundTrip[T ~int](t *testing.T, names Names[T], n int) {
	t.Helper()
	if len(names.names) != n {
		t.Fatalf("%s: %d names, want %d", names, len(names.names), n)
	}
	for v := range T(n) {
		got, err := names.Parse(names.Name(v))
		if err != nil || got != v {
			t.Errorf("Parse(%q) = %v, %v; want %d", names.Name(v), got, err, v)
		}
	}
	if _, err := names.Parse("meteor"); err == nil {
		t.Errorf("%s: an unknown name parses", names)
	}
}

// TestOneLineRoundTrip: the one-line forms String writes parse back to
// the same condition or action.
func TestOneLineRoundTrip(t *testing.T) {
	for _, c := range []Condition{
		{Metric: "chord.failed_lookups", Stat: StatTotal, Op: Above, Value: 10},
		{Metric: "chord.failed_lookups", Stat: StatRate, Op: Below, Value: 0.5},
		{Metric: "app.load", Stat: StatGauge, Op: Below, Value: -3},
		{Metric: "app.lat", Stat: StatMean, Op: Above, Value: 1e-9},
		{Metric: "chord.lookup_latency_ns", Stat: StatP50, Op: Above, Value: 1.5e6},
		{Metric: "chord.lookup_latency_ns", Stat: StatP90, Op: Above, Value: 2e9},
		{Metric: "chord.lookup_latency_ns", Stat: StatP99, Op: Below, Value: 2000000000},
		{Stat: StatNodes, Op: Above, Value: 100},
	} {
		got, err := ParseCondition(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCondition(%q) = %+v, %v; want %+v", c.String(), got, err, c)
		}
	}
	for _, a := range []Action{
		{Kind: ActHeal},
		{Kind: ActKill, Count: 3},
		{Kind: ActKill, Fraction: 0.5},
		{Kind: ActKill, Fraction: 0.25},
		{Kind: ActGrow, Count: 5},
	} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAction(%q) = %+v, %v; want %+v", a.String(), got, err, a)
		}
	}
	// An injected event has no one-line form.
	inject := Action{Kind: ActInject, Event: &Event{Kind: Heal}}
	var pe *PlanError
	if _, err := ParseAction(inject.String()); !errors.As(err, &pe) || pe.Class != FieldUnsupported {
		t.Errorf("ParseAction(%q) = %v, want an unsupported error", inject.String(), err)
	}
}

// TestValidateNamesTheField: a part's error reads as a field of the plan.
func TestValidateNamesTheField(t *testing.T) {
	p := Plan{
		Events: []Event{{Kind: Heal}},
		Rules: []Rule{{When: Condition{Stat: StatNodes}, Do: Action{Kind: ActInject,
			Event: &Event{Kind: Degrade, Loss: 2}}}},
	}
	var pe *PlanError
	if err := p.Validate(); !errors.As(err, &pe) || pe.Field != "rules[0].do.event.loss" || pe.Class != FieldOutOfRange {
		t.Fatalf("Validate = %v, want out of range at rules[0].do.event.loss", err)
	}
	p.Rules[0].Do.Event.Loss = 0.5
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil", err)
	}
}
