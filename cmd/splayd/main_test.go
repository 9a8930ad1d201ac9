package main

import (
	"errors"
	"slices"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestRegistryMatchesCatalog: what the hosting door admits by name is
// exactly what a daemon can instantiate.
func TestRegistryMatchesCatalog(t *testing.T) {
	t.Parallel()
	got := builtinRegistry(transport.Addr{}, "").Names()
	want := splay.BuiltinCatalog().Names()
	slices.Sort(got)
	if !slices.Equal(got, want) || len(got) != 5 {
		t.Errorf("daemon registry %v, catalog %v", got, want)
	}
}

// TestReportOnDaemon runs a built-in with report: true from the daemon's
// registry: with a collect target its instruments reach the aggregator
// under the daemon's key, without one the instance fails with the typed
// ErrNoCollector — the behavior the same job has under a Scenario.
func TestReportOnDaemon(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	agg, err := metrics.NewAggregator(nw.Node(1), 7000, k.Go)
	if err != nil {
		t.Fatal(err)
	}
	agg.Authorize("k")
	run := func(reg *core.Registry) *core.Instance {
		app, err := reg.New("cyclon", []byte(`{"report":true}`))
		if err != nil {
			t.Fatal(err)
		}
		me := transport.Addr{Host: simnet.HostName(0), Port: 9000}
		inst := core.StartInstance(rt, nw.Node(0), core.JobInfo{Me: me, Position: 1}, nil, app)
		k.RunFor(12 * time.Second)
		inst.Kill()
		k.RunFor(10 * time.Second)
		return inst
	}

	if _, err := run(builtinRegistry(agg.Addr(), "k")).Done(); err != nil {
		t.Errorf("reporting instance: %v", err)
	}
	if frames, _ := agg.Received(); agg.Nodes() != 1 || frames == 0 {
		t.Errorf("aggregator saw %d nodes, %d frames; want the instance's stream", agg.Nodes(), frames)
	}
	if _, err := run(builtinRegistry(transport.Addr{}, "k")).Done(); !errors.Is(err, splay.ErrNoCollector) {
		t.Errorf("collector-less daemon: err = %v, want ErrNoCollector", err)
	}
}
