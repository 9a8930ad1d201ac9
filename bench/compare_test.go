package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	noisy := []float64{80, 100, 120, 90, 130}
	for _, c := range []struct {
		name   string
		better string
		bound  float64
		a, b   []float64
		want   string
	}{
		{"higher: same", "higher", 0.1, steady(100), steady(100), verdictOK},
		{"higher: faster", "higher", 0.1, steady(100), steady(150), verdictOK},
		{"higher: 5% slower within 10%", "higher", 0.1, steady(100), steady(95), verdictOK},
		{"higher: 15% slower", "higher", 0.1, steady(100), steady(85), verdictWorse},
		{"lower: same", "lower", 0.05, steady(40), steady(40), verdictOK},
		{"lower: smaller", "lower", 0.05, steady(40), steady(30), verdictOK},
		{"lower: 8% bigger", "lower", 0.05, steady(40), steady(43.2), verdictWorse},
		{"noise wider than the bound", "higher", 0.1, noisy, steady(100), verdictUnresolved},
		{"noise on the other side", "lower", 0.1, steady(100), noisy, verdictUnresolved},
		{"worse beats unresolved", "higher", 0.1, noisy, steady(50), verdictWorse},
	} {
		if _, got := judge(c.better, c.bound, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if delta, _ := judge("lower", 0.1, []float64{50}, []float64{55}); !near(delta, 0.1) {
		t.Errorf("delta = %v, want +0.1", delta)
	}
}

// writeSet stores a two-run-per-workload result set; scale multiplies
// the wall metrics, digest and the virtual-clock metrics are fixed.
func writeSet(t *testing.T, dir, name string, speed float64, digest string) string {
	t.Helper()
	var set resultSet
	for seed := int64(1); seed <= 3; seed++ {
		set.Runs = append(set.Runs, runRecord{
			Workload: "chord_plain", Seed: seed, Seconds: 10, Scale: 1, Correct: true, Digest: digest,
			Metrics: map[string]float64{
				"sim_speed": speed * (1 + 0.001*float64(seed)), "ops_per_s": 100 * speed, "setup_s": 3,
				"heap_mb": 45, "op_sim_ms_p50": 600.5, "op_sim_ms_p95": 1000.25,
			},
		})
	}
	data, err := json.Marshal(&set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSets(t *testing.T) {
	if _, err := loadBenchmark(""); err != nil {
		t.Skipf("no BENCHMARK.json beside the bench: %v", err)
	}
	dir := t.TempDir()
	a := writeSet(t, dir, "a.json", 40, "d1")
	same := writeSet(t, dir, "same.json", 40.5, "d1")
	slow := writeSet(t, dir, "slow.json", 24, "d1")
	drift := writeSet(t, dir, "drift.json", 40, "d2")

	var out bytes.Buffer
	if code := compareSets(a, same, "", &out); code != exitOK {
		t.Errorf("self-compare exits %d:\n%s", code, out.String())
	}
	for _, want := range []string{"chord_plain", "sim_speed", "op_sim_ms_p95", "6 ok, 0 worse, 0 unresolved", "3 same-seed pairs, 0 exact-repeat mismatches"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareSets(a, slow, "", &out); code != exitIncorrect || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("40%% slower set exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(a, drift, "", &out); code != exitDigest || !strings.Contains(out.String(), "MISMATCH: chord_plain seed 1: sim_digest d1 vs d2") {
		t.Errorf("digest drift exits %d:\n%s", code, out.String())
	}
	if code := compareSets(a, filepath.Join(dir, "missing.json"), "", &out); code != exitIncorrect {
		t.Errorf("missing set exits %d", code)
	}
}
