package splay_test

// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (§5). Each bench runs its experiment at reduced scale so the
// full suite stays tractable; cmd/splay-experiments runs them at paper
// scale. go test -bench=. -benchmem regenerates everything.
//
// The package is an external test (splay_test): the experiments it runs
// are built on the splay scenario SDK, so an in-package test would be an
// import cycle.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/experiments"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Scale: scale, Seed: int64(i + 1), Out: io.Discard})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		_ = res
	}
}

func BenchmarkFig3PlanetLabRTT(b *testing.B)        { benchExperiment(b, "fig3", 0.2) }
func BenchmarkFig4ChurnScript(b *testing.B)         { benchExperiment(b, "fig4", 1) }
func BenchmarkTable1LOC(b *testing.B)               { benchExperiment(b, "tab1", 1) }
func BenchmarkFig6aChordHops(b *testing.B)          { benchExperiment(b, "fig6a", 0.1) }
func BenchmarkFig6bChordDelays(b *testing.B)        { benchExperiment(b, "fig6b", 0.1) }
func BenchmarkFig6cChordPlanetLab(b *testing.B)     { benchExperiment(b, "fig6c", 0.12) }
func BenchmarkFig7aPastryCDF(b *testing.B)          { benchExperiment(b, "fig7a", 0.15) }
func BenchmarkFig7bFreePastryScaling(b *testing.B)  { benchExperiment(b, "fig7b", 0.08) }
func BenchmarkFig7cSplayPastryScaling(b *testing.B) { benchExperiment(b, "fig7c", 0.05) }
func BenchmarkFig8Footprint(b *testing.B)           { benchExperiment(b, "fig8", 1) }
func BenchmarkFig9MixedDeployment(b *testing.B)     { benchExperiment(b, "fig9", 0.08) }
func BenchmarkFig10MassiveFailure(b *testing.B)     { benchExperiment(b, "fig10", 0.05) }
func BenchmarkFig11OvernetChurn(b *testing.B)       { benchExperiment(b, "fig11", 0.05) }
func BenchmarkFig12DeploymentTime(b *testing.B)     { benchExperiment(b, "fig12", 0.2) }
func BenchmarkFig13TreeDissemination(b *testing.B)  { benchExperiment(b, "fig13", 0.2) }
func BenchmarkFig14WebCache(b *testing.B)           { benchExperiment(b, "fig14", 0.1) }
func BenchmarkCtlplaneDeployment(b *testing.B)      { benchExperiment(b, "ctlplane", 0.05) }
func BenchmarkLookup10kChordAtScale(b *testing.B)   { benchExperiment(b, "lookup10k", 0.02) }
func BenchmarkLookup100kSharded(b *testing.B)       { benchExperiment(b, "lookup100k", 0.002) }
func BenchmarkLookup1mMemoryPlane(b *testing.B)     { benchExperiment(b, "lookup1m", 0.0002) }
func BenchmarkObsplaneMonitoring(b *testing.B)      { benchExperiment(b, "obsplane", 0.05) }
func BenchmarkFaultplaneClosedLoop(b *testing.B)    { benchExperiment(b, "faultplane", 0.05) }
func BenchmarkHostplanePlatform(b *testing.B)       { benchExperiment(b, "hostplane", 0.05) }
func BenchmarkConfigplaneTwinRuns(b *testing.B)     { benchExperiment(b, "configplane", 1) }
func BenchmarkGossipConvergence(b *testing.B)       { benchExperiment(b, "gossip", 1) }

// BenchmarkFig8RealMemoryPerInstance measures the actual Go heap consumed
// per Pastry instance, the companion to Fig. 8's modeled footprint: the
// paper reports under 1.5 MB per SPLAY instance.
func BenchmarkFig8RealMemoryPerInstance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const n = 400
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		k := sim.NewKernel()
		nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, n, 1)
		rt := core.NewSimRuntime(k, 1)
		rng := rand.New(rand.NewSource(1))
		nodes := make([]*pastry.Node, 0, n)
		for j := 0; j < n; j++ {
			addr := transport.Addr{Host: simnet.HostName(j), Port: 9000}
			ctx := core.NewAppContext(rt, nw.Node(j), core.JobInfo{Me: addr}, nil)
			cfg := pastry.DefaultConfig()
			id := pastry.ID(rng.Uint64())
			cfg.ID = &id
			nodes = append(nodes, pastry.New(ctx, cfg))
		}
		k.Go(func() {
			for _, node := range nodes {
				node.Start() //nolint:errcheck
			}
		})
		k.Run()
		if err := pastry.BuildNetwork(nodes, pastry.BuildOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perInstance := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		b.ReportMetric(perInstance/1024, "KB/instance")
		runtime.KeepAlive(nodes)
	}
}

// Ablation: superset selection versus exact probing (Fig. 12's subject).
func BenchmarkAblationSuperset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("fig12", experiments.Options{Scale: 0.2, Seed: int64(i + 1), Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		exact := res.Metrics["t_200_110"]
		wide := res.Metrics["t_200_200"]
		b.ReportMetric(exact, "s-at-110pct")
		b.ReportMetric(wide, "s-at-200pct")
	}
}

// BenchmarkKernelThroughput measures raw simulator event throughput, the
// number that bounds every experiment's wall-clock cost. It drives the
// kernel's pooled fast path (AfterFunc), the entry point every internal
// hot call site uses; steady state must stay at 0 allocs/op (DESIGN.md
// records the trajectory).
func BenchmarkKernelThroughput(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.AfterFunc(time.Microsecond, tick)
		}
	}
	k.AfterFunc(time.Microsecond, tick)
	b.ResetTimer()
	k.Run()
}

// Guard: experiments registry stays complete.
func TestBenchTargetsCoverAllExperiments(t *testing.T) {
	want := []string{"configplane", "ctlplane", "faultplane", "fig3", "fig4", "fig6a", "fig6b",
		"fig6c", "fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "gossip", "hostplane", "lookup10k", "lookup100k", "lookup1m", "obsplane", "tab1"}
	have := experiments.IDs()
	set := map[string]bool{}
	for _, id := range have {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, benches cover %d: %v", len(have), len(want), have)
	}
	fmt.Fprintln(io.Discard)
}
