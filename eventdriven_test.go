package splay_test

import (
	"context"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// TestDaemonInstancesReadEventDriven: an instance deployed through the
// controller and a daemon — behind the daemon's sandbox, which is the
// product path — reads its RPC connections with llenc's frame reader, like
// an instance started on a bare simnet node, and so do the platform's own
// framed protocols: controller sessions, the daemons' control loops and
// the aggregator's streams. The witness is the kernel's live task count.
// An idle connected fleet parks nothing, whatever its size (one session
// task and one control loop per daemon made it 81 at 40 daemons and 801
// at 400); only the session's own `ctl` report loop sleeps when it
// collects. A running instance adds at most its main task (a resident
// built-in not even that) and nothing else, however many connections it
// serves or pools or reports over (81 → 685 on this ring before the
// sandbox carried simnet's event capability through). Limits from
// AppSpec.Env tighten the same sandbox, and byte instruments are read off
// the frames, so neither changes the reader.
func TestDaemonInstancesReadEventDriven(t *testing.T) {
	t.Parallel()
	const nodes, slack, idle = 32, 8, 2
	limits := splay.EnvConfig{Net: splay.NetLimits{MaxSockets: 256, MaxTxBytes: 1 << 30}}
	for name, v := range map[string]struct {
		params  string
		env     splay.EnvConfig
		collect bool
	}{
		"plain":     {params: `{"lookups_per_min":30}`},
		"sandboxed": {params: `{"lookups_per_min":30}`, env: limits},
		"metered":   {params: `{"lookups_per_min":30,"report":true}`, env: limits, collect: true},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := splay.AppSpec{Name: "chord", Nodes: nodes, Params: []byte(v.params), Env: v.env}
			start := func(daemons int) *splay.Session {
				sc := splay.Scenario{
					Seed:    7,
					Testbed: splay.Uniform(daemons, 10*time.Millisecond, 0),
					Collect: splay.Collect{Metrics: v.collect},
					Apps:    []splay.AppSpec{spec},
				}
				sess, err := sc.Start(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sess.Stop)
				return sess
			}
			sess := start(40)
			before := sess.KernelStats().Tasks
			fleet := start(400).KernelStats().Tasks
			if _, err := sess.Deploy(spec).Wait(); err != nil {
				t.Fatal(err)
			}
			sess.RunFor(5 * time.Minute)
			after := sess.KernelStats().Tasks
			t.Logf("live kernel tasks: %d with 40 idle daemons, %d with 400; %d five simulated minutes into the deploy", before, fleet, after)
			if before > idle || fleet != before {
				t.Errorf("%d live tasks with 40 idle daemons connected and %d with 400, want the same figure, at most %d: a control session is being read by a parked task",
					before, fleet, idle)
			}
			if max := before + nodes + slack; after > max {
				t.Errorf("%d live tasks after 5 minutes, want at most %d (%d + 1 per instance + %d): connections are being read by parked tasks",
					after, max, before, slack)
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
