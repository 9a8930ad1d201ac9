package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smoke is the 1/20-scale size every test runs the workloads at.
var smoke = options{seed: 1, seconds: 1, scale: 0.05}

// TestSmokeWorkloads runs all four workloads end to end at 1/20 scale:
// every correctness check passes, every end-to-end metric is positive,
// a second run with the same seed repeats the digest and the
// virtual-clock metrics exactly, and a run under the span recorder and
// the CPU profile has the same digest as the run without — observing
// changes nothing.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, err := execute(w, smoke, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range first.checks {
				t.Errorf("check failed: %s", c)
			}
			if first.attempted < 1 || first.failed != 0 {
				t.Errorf("%d attempted, %d failed", first.attempted, first.failed)
			}
			if n := w.slices(smoke.seconds); len(first.slices) != n || n < minSlices {
				t.Errorf("%d slices, want %d ≥ %d", len(first.slices), n, minSlices)
			}
			vals, samples := endToEndValues(first, []time.Duration{first.setup})
			for _, d := range endToEnd {
				if vals[d.Name] <= 0 || samples[d.Name] < 1 {
					t.Errorf("%s = %v (n=%d), want positive", d.Name, vals[d.Name], samples[d.Name])
				}
			}

			tr, prof := newTracer(), &cpuProfile{}
			traced, err := execute(w, smoke, tr, prof)
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest != first.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, first.digest)
			}
			again, _ := endToEndValues(traced, []time.Duration{traced.setup})
			for name := range exactRepeat {
				if again[name] != vals[name] {
					t.Errorf("%s: %v then %v for the same seed", name, vals[name], again[name])
				}
			}
			if tr.total("splay.window") <= 0 || len(tr.durations("splay.slice")) != len(traced.slices) {
				t.Errorf("window span %v with %d slice spans", tr.total("splay.window"), len(tr.durations("splay.slice")))
			}
			if _, err := leafSamples(prof.buf.Bytes()); err != nil {
				t.Errorf("the run's own profile does not parse: %v", err)
			}
			layer := perLayerValues(traced, tr, nil, nil, vals["sim_speed"])
			if len(layer) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want every one of %d", len(layer), len(perLayer))
			}

			other := smoke
			other.seed = 2
			second, err := execute(w, other, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if second.digest == first.digest {
				t.Errorf("seeds 1 and 2 share digest %s: the seed does not reach the inputs", first.digest)
			}
		})
	}
}

func TestSetupOnlyStopsBeforeTheWindow(t *testing.T) {
	o := smoke
	o.setupOnly = true
	out, err := execute(workloadByName("cyclon_churn"), o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.setup <= 0 || len(out.slices) != 0 {
		t.Errorf("setup %v, %d slices", out.setup, len(out.slices))
	}
}

// TestChordJoinSchedule pins the shape the ring's convergence rests on:
// the core joins one node per stabilization round, the rest one
// chordStagger after another, with no gap or overlap where they meet.
func TestChordJoinSchedule(t *testing.T) {
	for pos := 1; pos <= chordNodes; pos++ {
		want := chordStagger
		if pos <= chordCore {
			want = chordRound
		}
		if got := chordJoinAt(pos) - chordJoinAt(pos-1); got != want {
			t.Errorf("position %d joins %v after position %d, want %v", pos, got, pos-1, want)
		}
	}
}

// TestProbes runs every layer probe at 1/50 of its iteration count: each
// reports a positive cost under the name and unit the catalogue lists.
func TestProbes(t *testing.T) {
	vals, err := runProbes(0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if v, ok := vals[p.name]; !ok || v <= 0 {
			t.Errorf("probe %s = %v", p.name, v)
		}
		if p.allocs != "" && vals[p.allocs] <= 0 {
			t.Errorf("probe %s = %v", p.allocs, vals[p.allocs])
		}
	}
	for _, name := range []string{"livenet.rpc_rtt_us_p50", "livenet.rpc_calls_per_s"} {
		if _, ok := vals[name]; !ok {
			t.Errorf("probe %s missing", name)
		}
	}
}

// TestLiveAppsYieldTheBaton pins the cooperative-baton rule for bench
// applications that run under splay.Live: an instance's tasks share one
// execution baton, handed over only inside Env calls, so an application
// that waits on a sync.WaitGroup or a bare channel keeps the baton and
// starves its own RPC reader — the call it waits for never completes.
// The live probe waits with env.Sleep; this test shows it makes progress
// and that no bench application reaches for sync.WaitGroup.
func TestLiveAppsYieldTheBaton(t *testing.T) {
	vals, err := probeLive(50 * time.Millisecond)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	if vals["livenet.rpc_calls_per_s"] <= 0 {
		t.Errorf("live caller completed no call: %v", vals)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("sync.WaitGroup")) {
			t.Errorf("%s uses sync.WaitGroup: under Live a bench application must wait with env.Sleep", f)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON holds the code's metric tables and
// workload list to BENCHMARK.json, name for name and in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmark("")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestResultLine checks the contract of the last output line: exactly
// the keys correct, attempted, failed and metrics, every metric of the
// mode with its value and unit.
func TestResultLine(t *testing.T) {
	rec := &runRecord{Workload: "w", Correct: true, Attempted: 3, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		rec.Metrics[d.Name] = 1.5
	}
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := finish(rec)
	w.Close()
	os.Stdout = stdout
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not one JSON object: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.Name]; m.Value == nil || *m.Value != 1.5 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v", d.Name, m)
		}
	}
	if rest, err := scanLine(buf.Bytes(), recordPrefix); err != nil || !strings.Contains(rest, `"workload":"w"`) {
		t.Errorf("no record line for a parent process: %q, %v", rest, err)
	}
	rec.Correct = false
	os.Stdout, _ = os.Open(os.DevNull)
	code = finish(rec)
	os.Stdout = stdout
	if code != exitIncorrect {
		t.Errorf("incorrect run exits %d, want %d", code, exitIncorrect)
	}
}
