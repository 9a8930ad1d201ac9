package splay_test

// Scenario serialization tests: the wire format round-trips losslessly
// (re-marshal idempotency), a serialized scenario runs byte-identically
// to its in-process Go value (DESIGN.md invariants 7 and 10 — the
// contract that makes hosted submission possible), and the members that
// cannot travel are rejected loudly.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// wireScenario builds the reference scenario for the round-trip tests:
// built-in chord by name on a deterministic simulated testbed, with the
// collection plane up so the digest sees real telemetry.
func wireScenario() splay.Scenario {
	churn, err := splay.ChurnScript("at 20s leave 1", 6)
	if err != nil {
		panic(err)
	}
	return splay.Scenario{
		Name:    "wire-chord",
		Seed:    41,
		Testbed: splay.Uniform(6, 4*time.Millisecond, 0),
		Collect: splay.Collect{Metrics: true, ReportEvery: 2 * time.Second},
		Apps: []splay.AppSpec{{
			Name:     "chord",
			Nodes:    4,
			Superset: 1.25,
			Params:   []byte(`{"bits":16,"lookups_per_min":30}`),
			Env: splay.EnvConfig{
				Caps: splay.CapNet,
				Net:  splay.NetLimits{MaxSockets: 64},
			},
		}},
		Churn:    churn,
		Duration: 30 * time.Second,
	}
}

// runDigest runs a scenario and flattens everything its Result exposes
// into one comparable string.
func runDigest(t *testing.T, sc splay.Scenario) string {
	t.Helper()
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, j := range res.Jobs {
		fmt.Fprintf(&b, "job %s state=%s deployed=%v\n", j.ID, j.State, j.Deployed)
	}
	if res.Metrics != nil {
		frames, bytes := res.Metrics.Received()
		fmt.Fprintf(&b, "nodes=%d frames=%d bytes=%d deploys=%d\n",
			res.Metrics.Nodes(), frames, bytes, res.Metrics.Counter("ctl.deploys"))
	}
	return b.String()
}

// TestScenarioRoundTripByteIdentical is the wire-submission contract: a
// scenario pushed through Marshal/UnmarshalScenario runs byte-for-byte
// identically to the in-process value it came from, and the wire bytes
// are a fixed point of the round trip.
func TestScenarioRoundTripByteIdentical(t *testing.T) {
	t.Parallel()
	sc := wireScenario()
	data, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := splay.UnmarshalScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-marshal drifted:\n first %s\n again %s", data, again)
	}
	local := runDigest(t, wireScenario())
	wire := runDigest(t, back)
	if local != wire {
		t.Fatalf("serialized scenario ran differently:\n local %q\n wire  %q", local, wire)
	}
}

// TestScenarioMarshalRejectsInline pins the loud-failure contract for
// the two members that cannot travel.
func TestScenarioMarshalRejectsInline(t *testing.T) {
	t.Parallel()
	inline := splay.Scenario{
		Testbed: splay.Uniform(2, time.Millisecond, 0),
		Apps: []splay.AppSpec{{
			Name: "inline",
			App:  splay.AppFunc(func(env *splay.Env) error { return nil }),
		}},
	}
	if _, err := inline.Marshal(); err == nil {
		t.Error("inline App implementation serialized silently")
	}
	logs := splay.Scenario{
		Testbed: splay.Uniform(2, time.Millisecond, 0),
		Collect: splay.Collect{Logs: os.Stderr},
	}
	if _, err := logs.Marshal(); err == nil {
		t.Error("Collect.Logs writer serialized silently")
	}
	if _, err := splay.UnmarshalScenario([]byte(`{"testbed":{"kind":"warp","daemons":3}}`)); err == nil {
		t.Error("unknown testbed kind accepted")
	}
}

// TestUnmarshalScenarioStrict: hand-written wire JSON with a misspelt
// member fails loudly instead of running with that member's default
// (here: 30 s instead of the 5 s the author meant). Every document
// Marshal itself emits still decodes — the round-trip test above and
// the empty scenario here.
func TestUnmarshalScenarioStrict(t *testing.T) {
	t.Parallel()
	_, err := splay.UnmarshalScenario([]byte(`{"apps":[{"app":"chord"}],"duration":5000000000}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "duration"`) {
		t.Errorf(`"duration" for "duration_ns" = %v, want an unknown-field error`, err)
	}
	empty, err := splay.Scenario{}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := splay.UnmarshalScenario(empty); err != nil {
		t.Errorf("Marshal output %s does not decode: %v", empty, err)
	}
}
