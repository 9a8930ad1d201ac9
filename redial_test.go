package splay

import (
	"context"
	"testing"
	"time"
)

// TestFleetStreamRedials: on a two-partition testbed, partition 1's fleet
// counters stream from that partition's first daemon host. A crash of
// every daemon host resets that stream; after the restart it redials, so
// the aggregator keeps receiving partition 1's daemon.pings as they rise.
func TestFleetStreamRedials(t *testing.T) {
	sc := Scenario{
		Seed:    3,
		Testbed: Uniform(2046, 20*time.Millisecond, 0),
		Collect: Collect{Metrics: true, ReportEvery: 2 * time.Second},
		Faults: FaultPlan{Events: []FaultEvent{
			CrashAt(5*time.Second, 1),
			RestartAt(15 * time.Second),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if got := sess.Partitions(); got != 2 {
		t.Fatalf("%d partitions at 2,048 hosts, want 2", got)
	}
	if err := sess.ArmFaults(); err != nil {
		t.Fatal(err)
	}
	sess.RunFor(30 * time.Second)
	sample := func() (agg, p0, p1 uint64) {
		return sess.Telemetry().Counter("daemon.pings"), sess.fleet[0].Pings.Total(), sess.fleet[1].Pings.Total()
	}
	agg1, p01, p11 := sample()
	sess.RunFor(time.Minute)
	agg2, p02, p12 := sample()
	t.Logf("daemon.pings over a minute after the restart: aggregated +%d, partition 0 +%d, partition 1 +%d",
		agg2-agg1, p02-p01, p12-p11)
	if p12 == p11 {
		t.Fatal("partition 1's daemons answered no ping after the restart")
	}
	// Each stream lags its counters by at most one report period: far
	// less than half of what partition 1 counts in a minute.
	if got, want := agg2-agg1, p02-p01+(p12-p11)/2; got < want {
		t.Errorf("the aggregator received %d pings, want ≥ %d: partition 1's stream stayed down", got, want)
	}
}
