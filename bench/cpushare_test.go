package main

import (
	"math"
	"os"
	"testing"
)

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/splaykit/splay/internal/sim.(*Kernel).resume":                                "sim",
		"github.com/splaykit/splay/internal/sim.evLess":                                          "sim",
		"github.com/splaykit/splay/internal/simnet.(*conn).Read":                                 "simnet",
		"github.com/splaykit/splay/internal/topology.(*ModelNet).RTT":                            "simnet",
		"github.com/splaykit/splay/internal/rpc.(*peerConn).call":                                "rpc",
		"github.com/splaykit/splay/internal/llenc.(*Reader).ReadMessage":                         "llenc",
		"github.com/splaykit/splay/internal/core.(*AppContext).Blocking":                         "core",
		"github.com/splaykit/splay/internal/sandbox.(*sbConn).Write":                             "sandbox",
		"github.com/splaykit/splay/internal/metrics.shardHint":                                   "metrics",
		"github.com/splaykit/splay/internal/faults.(*Engine).tick":                               "faults",
		"github.com/splaykit/splay/internal/controller.(*Controller).submit":                     "controller",
		"github.com/splaykit/splay/internal/daemon.(*Daemon).serve":                              "daemon",
		"github.com/splaykit/splay/internal/ctlproto.(*Msg).ParseJSON":                           "ctlproto",
		"github.com/splaykit/splay/internal/hosting.(*Service).dispatch":                         "hosting",
		"github.com/splaykit/splay/internal/config.Compile":                                      "config",
		"github.com/splaykit/splay/internal/churn.(*Executor).Run":                               "churn",
		"github.com/splaykit/splay/internal/protocols/chord.(*Node).findSuccessor":               "protocols",
		"github.com/splaykit/splay/internal/protocols/cyclon.(*Node).shuffle":                    "protocols",
		"github.com/splaykit/splay/internal/ring.(*Interner[go.shape.struct { ID uint64 }]).Get": "protocols",
		"github.com/splaykit/splay/internal/stats.Sorted.Percentile":                             "other",
		"github.com/splaykit/splay.(*Session).RunFor":                                            "other",
		"encoding/json.(*decodeState).object":                                                    "encoding_json",
		"runtime.futex":                                                                          "runtime_sched",
		"runtime.chanrecv":                                                                       "runtime_sched",
		"runtime.gopark":                                                                         "runtime_sched",
		"runtime.unlock2":                                                                        "runtime_sched",
		"runtime.(*waitq).dequeue":                                                               "runtime_sched",
		"runtime.mallocgc":                                                                       "runtime_gc",
		"runtime.scanobject":                                                                     "runtime_gc",
		"runtime.memclrNoHeapPointers":                                                           "runtime_gc",
		"runtime.(*mspan).writeHeapBitsSmall":                                                    "runtime_gc",
		"runtime.memmove":                                                                        "other",
		"internal/sync.(*Mutex).Lock":                                                            "other",
		"main.(*chordApp).Run":                                                                   "other",
		"(unknown)":                                                                              "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The fixture is the CPU profile of a traced 1/20-scale chord_observed
// window; the expectations were cross-checked against go tool pprof -top.
func TestProfileFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/chord_observed.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := leafSamples(data)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range leaves {
		total += v
	}
	if total != 350_000_000 || len(leaves) != 28 {
		t.Errorf("profile holds %d ns over %d leaf functions, want 350 ms over 28", total, len(leaves))
	}
	if got := leaves["runtime.futex"]; got != 60_000_000 {
		t.Errorf("runtime.futex = %d ns, want 60 ms", got)
	}
	if got := leaves["github.com/splaykit/splay/internal/simnet.(*conn).Read"]; got != 20_000_000 {
		t.Errorf("simnet.(*conn).Read = %d ns, want 20 ms", got)
	}

	shares, top := cpuShares(leaves)
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d buckets reported, want all %d", len(shares), len(cpuBuckets))
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	for b, want := range map[string]float64{
		"runtime_sched": 37.1429, "runtime_gc": 14.2857, "simnet": 8.5714, "sim": 5.7143,
		"encoding_json": 2.8571, "hosting": 0, "other": 20,
	} {
		if math.Abs(shares[b]-want) > 1e-3 {
			t.Errorf("cpu_share.%s = %.4f, want %.4f", b, shares[b], want)
		}
	}
	if len(top) != 8 || top[0] != "runtime.futex" {
		t.Errorf("top = %v, want 8 entries led by runtime.futex", top)
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := leafSamples([]byte("not gzip")); err == nil {
		t.Error("garbage accepted as a profile")
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated length-delimited field accepted")
	}
	shares, top := cpuShares(nil)
	if len(shares) != len(cpuBuckets) || top != nil {
		t.Errorf("empty profile: %d buckets, top %v", len(shares), top)
	}
}
