package splay_test

import (
	"context"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// TestDaemonInstancesReadEventDriven: an instance deployed through the
// controller and a daemon — behind the daemon's sandbox, which is the
// product path — reads its RPC connections with the frame reader, like an
// instance started on a bare simnet node. The witness is the kernel's live
// task count: an event-driven instance parks its main task and nothing
// else, however many connections it serves or pools, where the task loops
// (serveConn, readLoop, the blocking accept) held one task per connection
// end (81 → 685 on this ring before the sandbox carried simnet's event
// capability through). Limits from AppSpec.Env tighten the same sandbox,
// and byte instruments are read off the frames, so neither changes the
// reader.
func TestDaemonInstancesReadEventDriven(t *testing.T) {
	t.Parallel()
	const nodes, slack = 32, 8
	limits := splay.EnvConfig{Net: splay.NetLimits{MaxSockets: 256, MaxTxBytes: 1 << 30}}
	for name, v := range map[string]struct {
		params  string
		env     splay.EnvConfig
		collect bool
		// perInstance is how many tasks one instance may add: its own main
		// task, plus — when it reports — the stream task the collector
		// (metrics.Aggregator, platform side) still parks per reporter.
		perInstance int
	}{
		"plain":     {params: `{"lookups_per_min":30}`, perInstance: 1},
		"sandboxed": {params: `{"lookups_per_min":30}`, env: limits, perInstance: 1},
		"metered":   {params: `{"lookups_per_min":30,"report":true}`, env: limits, collect: true, perInstance: 2},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := splay.AppSpec{Name: "chord", Nodes: nodes, Params: []byte(v.params), Env: v.env}
			sc := splay.Scenario{
				Seed:    7,
				Testbed: splay.Uniform(40, 10*time.Millisecond, 0),
				Collect: splay.Collect{Metrics: v.collect},
				Apps:    []splay.AppSpec{spec},
			}
			sess, err := sc.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Stop()
			before := sess.KernelStats().Tasks
			if _, err := sess.Deploy(spec).Wait(); err != nil {
				t.Fatal(err)
			}
			sess.RunFor(5 * time.Minute)
			after := sess.KernelStats().Tasks
			t.Logf("live kernel tasks: %d before the deploy, %d after 5 simulated minutes", before, after)
			if before == 0 {
				t.Fatal("KernelStats().Tasks is 0 with 40 daemons connected")
			}
			if max := before + v.perInstance*nodes + slack; after > max {
				t.Errorf("%d live tasks after 5 minutes, want at most %d (%d + %d per instance + %d): connections are being read by parked tasks",
					after, max, before, v.perInstance, slack)
			}
			if v.collect {
				// Metered without a socket wrapper: the counts come off the
				// frames (internal/rpc pins in == out frame for frame).
				if tel := sess.Telemetry(); tel.Counter("rpc.bytes_in") == 0 || tel.Counter("rpc.bytes_out") == 0 {
					t.Errorf("rpc.bytes_in %d, rpc.bytes_out %d: the byte instruments did not move",
						tel.Counter("rpc.bytes_in"), tel.Counter("rpc.bytes_out"))
				}
			}
		})
	}
}
