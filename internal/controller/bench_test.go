package controller

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// noopRegistry registers a minimal application whose instances exit
// immediately: the benchmark measures the control plane, not the app.
func noopRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.MustRegister("noop", func(params json.RawMessage) (core.App, error) {
		return core.AppFunc(func(ctx *core.AppContext) error { return nil }), nil
	})
	return reg
}

// benchTestbed wires a controller and n daemons on a simulated network and
// runs until every daemon is connected and has a measured RTT.
func benchTestbed(b *testing.B, n int) (*sim.Kernel, *Controller) {
	b.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond}, n+1, 1)
	rt := core.NewSimRuntime(k, 1)
	reg := noopRegistry()
	ctl := New(rt, nw.Node(0), DefaultConfig())
	k.Go(func() {
		if err := ctl.Start(); err != nil {
			b.Errorf("controller: %v", err)
		}
	})
	ctlAddr := transport.Addr{Host: "n0", Port: DefaultConfig().Port}
	for i := 1; i <= n; i++ {
		d := daemon.New(rt, nw.Node(i), reg, daemon.DefaultConfig(simnet.HostName(i)), nil)
		k.GoAfter(time.Duration(i)*time.Millisecond, func() {
			if err := d.Connect(ctlAddr); err != nil {
				b.Errorf("daemon connect: %v", err)
			}
		})
	}
	// One full ping period so monitoring has measured responsiveness.
	k.RunFor(65 * time.Second)
	if got := ctl.Daemons(); got != n {
		b.Fatalf("connected %d daemons, want %d", got, n)
	}
	return k, ctl
}

// BenchmarkSelect prices one placement choice — the 40 fastest of a fleet,
// platform_jobs' probe for a 32-node job — at two fleet sizes. What it
// allocates must not grow with the fleet (CI compares B/op across the
// two sizes).
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{3000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			reg := newRegistry()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("n%d", i+1)
				reg.put(&daemonSession{name: name, hash: nameHash(name),
					rtt: time.Duration(1+rng.Intn(200_000)) * time.Microsecond})
			}
			b.ReportAllocs()
			for b.Loop() {
				reg.fastest(40, nil)
			}
		})
	}
}

// BenchmarkControlPlane measures submit throughput against 1000 simulated
// daemons: one iteration is a full deployment round (REGISTER superset,
// LIST, START) of a 200-instance job followed by its teardown. The
// simulation network is deterministic, so the benchmark isolates the
// controller's own costs: selection, fan-out scheduling, and frame
// writes.
func BenchmarkControlPlane(b *testing.B) {
	k, ctl := benchTestbed(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var job *JobStatus
		var err error
		k.Go(func() {
			job, err = ctl.Submit(JobSpec{App: "noop", Nodes: 200})
		})
		k.RunFor(30 * time.Second)
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		if job.State != JobRunning {
			b.Fatalf("job state = %s", job.State)
		}
		k.Go(func() {
			if err := ctl.StopJob(job.ID); err != nil {
				b.Errorf("stop: %v", err)
			}
		})
		k.RunFor(30 * time.Second)
	}
}
