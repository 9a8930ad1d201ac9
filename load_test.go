package splay

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestConfigCapBits pins the compiler's capability names against the
// SDK's Cap constants, and the bit values both travel as. (The two sides
// share internal/wire's constants, so only the name mapping and the
// serialized numbers are left to check.)
func TestConfigCapBits(t *testing.T) {
	t.Parallel()
	cases := []struct {
		caps string
		want Cap
		bits string
	}{
		{"[net]", CapNet, "1"},
		{"[fs]", CapFS, "2"},
		{"[net, fs]", AllCaps, "3"},
		{"all", AllCaps, "3"},
	}
	for _, tc := range cases {
		doc := "apps:\n  - app: chord\n    env:\n      caps: " + tc.caps + "\n"
		wire, err := CompileConfig([]byte(doc))
		if err != nil {
			t.Fatalf("caps %s: %v", tc.caps, err)
		}
		twin := Scenario{Apps: []AppSpec{{Name: "chord", Env: EnvConfig{Caps: tc.want}}}}
		want, err := twin.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if pin := `{"apps":[{"app":"chord","env":{"caps":` + tc.bits + `}}]}`; !bytes.Equal(wire, want) || string(wire) != pin {
			t.Errorf("caps %s:\n doc  %s\n twin %s\n pin  %s", tc.caps, wire, want, pin)
		}
	}
}

// TestPastryReport is the regression test for the drift three copies of
// each built-in allowed: pastry honored `report` but its catalog entry
// did not declare it, so documents could not ask for it.
func TestPastryReport(t *testing.T) {
	t.Parallel()
	doc := "apps:\n  - app: pastry\n    params:\n      report: true\n"
	wire, err := CompileConfig([]byte(doc + "collect:\n  metrics: true\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"apps":[{"app":"pastry","params":{"report":true}}],"collect":{"metrics":true}}`; string(wire) != want {
		t.Errorf("compiled %s\n    want %s", wire, want)
	}
	_, err = CompileConfig([]byte(doc))
	var cerr *ConfigError
	if !errors.As(err, &cerr) || cerr.Code != "bad_value" || cerr.Line != 4 || cerr.Col != 15 ||
		!strings.Contains(cerr.Msg, "report: true needs collect.metrics") {
		t.Errorf("report without a collector = %v, want the positioned collect.metrics error", err)
	}
	// And the compiled job does report: pastry.* series reach the result.
	sc, err := LoadScenario([]byte("seed: 5\ntestbed:\n  kind: uniform\n  daemons: 4\n  rtt: 5ms\n" +
		"apps:\n  - app: pastry\n    nodes: 3\n    params:\n      report: true\n      lookups_per_min: 60\n" +
		"collect:\n  metrics: true\n  report_every: 2s\nduration: 20s\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics.Counter("pastry.routes"); n == 0 {
		t.Errorf("pastry.routes = %d after 20s of 60 routes/min on 3 nodes", n)
	}
}

// TestLoadScenarioChurnCollects: churn composes with the other planes, so
// a document may declare it beside collect and assert — and the loaded
// scenario runs, the trace's population reporting into the assertion.
func TestLoadScenarioChurnCollects(t *testing.T) {
	t.Parallel()
	sc, err := LoadScenario([]byte("seed: 5\ntestbed:\n  kind: uniform\n  daemons: 1\n  rtt: 5ms\n" +
		"apps:\n  - app: cyclon\n    params:\n      report: true\n      shuffle_every: 2s\n" +
		"churn:\n  script:\n    - at 1s join 8\n    - at 20s leave 25%\n" +
		"collect:\n  metrics: true\n  report_every: 2s\n" +
		"assert:\n  - name: gossips\n    eventually: total(cyclon.shuffles) > 0\nduration: 30s\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics.Nodes(); n != 8 {
		t.Errorf("%d streams reported, want the 8 churned-in instances", n)
	}
}

// TestConfigGoEquivalence is the compact invariant-11 check: a document
// exercising testbed, params, collect, faults and assertions compiles to
// the exact bytes its handwritten-Go twin marshals to. (The golden-pinned
// configplane experiment proves the two also *run* identically.)
func TestConfigGoEquivalence(t *testing.T) {
	t.Parallel()
	doc := `name: twin
seed: 11
testbed:
  kind: uniform
  daemons: 10
  rtt: 10ms
apps:
  - app: chord
    params:
      bits: 16
      fault_tolerant: true
    nodes: 8
    full_list: true
collect:
  metrics: true
  report_every: 5s
faults:
  eval_every: 5s
  events:
    - at: 30s
      kind: partition
      fraction: 50%
assert:
  - name: bites
    eventually: total(chord.failed_lookups) > 0
duration: 2m
`
	wire, err := CompileConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	twin := Scenario{
		Name:    "twin",
		Seed:    11,
		Testbed: Uniform(10, 10*time.Millisecond, 0),
		Apps: []AppSpec{{
			Name:     "chord",
			Params:   []byte(`{"bits":16,"fault_tolerant":true}`),
			Nodes:    8,
			FullList: true,
		}},
		Collect:  Collect{Metrics: true, ReportEvery: 5 * time.Second},
		Faults:   FaultPlan{EvalEvery: 5 * time.Second, Events: []FaultEvent{PartitionAt(30*time.Second, 0.5)}},
		Assert:   []Assertion{EventuallyHolds("bites", Metric("chord.failed_lookups", StatTotal, Above, 0), 0)},
		Duration: 2 * time.Minute,
	}
	want, err := twin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, want) {
		t.Errorf("document and Go twin diverge:\n doc  %s\n twin %s", wire, want)
	}
	// And the loaded Scenario re-marshals to the same bytes.
	sc, err := LoadScenario([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	again, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("LoadScenario round-trip diverges:\n got  %s\n want %s", again, want)
	}
}

// TestLoadScenarioErrors pins the SDK-surface error behavior: typed
// *ConfigError with code and field path, and the in-memory decline of
// trace references.
func TestLoadScenarioErrors(t *testing.T) {
	t.Parallel()
	_, err := LoadScenario([]byte("apps:\n  - app: chord\n    params:\n      bits: 99\n"))
	var cerr *ConfigError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
	if cerr.Code != "out_of_range" || cerr.Path != "apps[0].params.bits" || cerr.Line != 4 {
		t.Errorf("error = %+v, want out_of_range at apps[0].params.bits line 4", cerr)
	}

	_, err = LoadScenario([]byte("apps:\n  - app: chord\nchurn:\n  trace: t.trace\n"))
	if !errors.As(err, &cerr) || cerr.Code != "unsupported" || cerr.Path != "churn.trace" {
		t.Errorf("in-memory trace ref = %v, want unsupported at churn.trace", err)
	}

	if err := ValidateConfig([]byte("apps:\n  - app: quux\n")); !errors.As(err, &cerr) || cerr.Code != "unknown_app" {
		t.Errorf("ValidateConfig unknown app = %v", err)
	}
	if err := ValidateConfig([]byte("apps:\n  - app: chord\n")); err != nil {
		t.Errorf("ValidateConfig valid doc = %v", err)
	}
}

// TestLoadScenarioFile resolves churn trace references relative to the
// document's directory.
func TestLoadScenarioFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	trace := "0.5 join 1\n1.5 join 2\n9 leave 1\n"
	if err := os.WriteFile(filepath.Join(dir, "nodes.trace"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := "apps:\n  - app: chord\nchurn:\n  trace: nodes.trace\n"
	if err := os.WriteFile(filepath.Join(dir, "scenario.yaml"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenarioFile(filepath.Join(dir, "scenario.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Churn.Enabled() || sc.Churn.Slots() != 3 {
		t.Errorf("churn = enabled %v slots %d, want 3 slots", sc.Churn.Enabled(), sc.Churn.Slots())
	}
	if _, err := LoadScenarioFile(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestIsConfigDocumentSniff pins the submit-path sniff the CLI and the
// hosting plane share.
func TestIsConfigDocumentSniff(t *testing.T) {
	t.Parallel()
	if !IsConfigDocument([]byte("apps:\n  - app: chord\n")) {
		t.Error("document sniffed as wire")
	}
	wire, err := (Scenario{Apps: []AppSpec{{Name: "chord"}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if IsConfigDocument(wire) {
		t.Error("wire sniffed as document")
	}
}
