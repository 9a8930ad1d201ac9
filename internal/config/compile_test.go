package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/wire"
)

// TestCompileMinimal pins the exact wire bytes small documents compile
// to: the canonical Scenario.Marshal form, params as sorted-key compact
// JSON holding only what the document set.
func TestCompileMinimal(t *testing.T) {
	t.Parallel()
	for _, tc := range compileMinimalCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, perr := Compile([]byte(tc.doc), Options{})
			if perr != nil {
				t.Fatalf("compile: %v", perr)
			}
			if string(got) != tc.want {
				t.Errorf("wire bytes\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

var compileMinimalCases = []struct {
	name string
	doc  string
	want string
}{
	{
		"bare app",
		"apps:\n  - app: chord\n",
		`{"apps":[{"app":"chord"}]}`,
	},
	{
		"params sorted and sparse",
		"apps:\n  - app: chord\n    params:\n      lookups_per_min: 6\n      bits: 16\n",
		`{"apps":[{"app":"chord","params":{"bits":16,"lookups_per_min":6}}]}`,
	},
	{
		"human units",
		"name: demo\nseed: 7\napps:\n  - app: cyclon\n    params:\n      shuffle_every: 5s\n    nodes: 24\nduration: 60s\n",
		`{"name":"demo","seed":7,"apps":[{"app":"cyclon","params":{"shuffle_every":5000000000},"nodes":24}],"duration_ns":60000000000}`,
	},
}

// fullDoc exercises every schema section at once.
const fullDoc = `# kitchen sink
name: full
seed: 11
testbed:
  kind: uniform
  daemons: 40
  rtt: 10ms
  bps: 512kbps
apps:
  - app: chord
    params:
      bits: 40
      fault_tolerant: true
      lookups_per_min: 6
      report: true
    nodes: 32
    superset: 1.5
    full_list: true
    env:
      caps: [net, fs]
      net:
        max_sockets: 64
        max_tx: 1MB
        blacklist: [10.0.0.1]
      fs:
        max_bytes: 64KB
        max_open_files: 8

collect:
  metrics: true
  report_every: 5s
  key: k
faults:
  eval_every: 5s
  events:
    - at: 60s
      kind: partition
      fraction: 50%
    - at: 90s
      kind: degrade
      extra_latency: 100ms
      loss: 10%
  rules:
    - name: heal-fast
      when: total(chord.failed_lookups) > 10
      for: 10s
      do: heal
      cooldown: 30s
      max_fires: 2
assert:
  - name: bites
    eventually: total(chord.failed_lookups) > 0
    within: 2m
  - name: recovers
    converges: rate(chord.failed_lookups) < 0.5
    after: 30s

duration: 5m
register_timeout: 30s

workers: 2
`

// TestCompileFull compiles the kitchen-sink document, checks the output
// is valid JSON carrying every section, and that compilation is
// deterministic byte for byte.
func TestCompileFull(t *testing.T) {
	t.Parallel()
	wire, perr := Compile([]byte(fullDoc), Options{})
	if perr != nil {
		t.Fatalf("compile: %v", perr)
	}
	if !json.Valid(wire) {
		t.Fatalf("compiled output is not valid JSON: %s", wire)
	}
	again, perr := Compile([]byte(fullDoc), Options{})
	if perr != nil || !bytes.Equal(wire, again) {
		t.Errorf("compile is not deterministic: %v", perr)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(wire, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "seed", "testbed", "apps", "collect", "faults",
		"assert", "duration_ns", "register_timeout_ns", "workers"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire output lacks %q: %s", key, wire)
		}
	}
	if want := `{"bits":40,"fault_tolerant":true,"lookups_per_min":6,"report":true}`; !strings.Contains(string(wire), want) {
		t.Errorf("params not in canonical sorted form, want %s in %s", want, wire)
	}
	if !strings.Contains(string(wire), `"Fraction":0.5`) {
		t.Errorf("50%% did not compile to 0.5: %s", wire)
	}
	if !strings.Contains(string(wire), `"bps":512000`) {
		t.Errorf("512kbps did not compile to 512000: %s", wire)
	}
	if !strings.Contains(string(wire), `"caps":3`) {
		t.Errorf("[net, fs] did not compile to caps 3: %s", wire)
	}
}

// TestCompileChurnScript compiles a synthetic churn description into an
// explicit deterministic event timeline, seeded by the scenario unless
// churn.seed overrides.
func TestCompileChurnScript(t *testing.T) {
	t.Parallel()
	doc := "seed: 9\napps:\n  - app: chord\nchurn:\n  script: at 30s join 10\n"
	wire, perr := Compile([]byte(doc), Options{})
	if perr != nil {
		t.Fatalf("compile: %v", perr)
	}
	var w struct {
		Churn []struct {
			At   int64 `json:"at"`
			Join bool  `json:"join"`
			Node int   `json:"node"`
		} `json:"churn"`
	}
	if err := json.Unmarshal(wire, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Churn) != 10 {
		t.Fatalf("join 10 produced %d events", len(w.Churn))
	}
	for _, e := range w.Churn {
		if !e.Join || e.At != int64(30e9) {
			t.Errorf("event %+v, want join at 30s", e)
		}
	}

	// A different churn.seed must yield a different document only when
	// the script is stochastic; the override must at least be accepted.
	doc2 := strings.Replace(doc, "  script:", "  seed: 4\n  script:", 1)
	if _, perr := Compile([]byte(doc2), Options{}); perr != nil {
		t.Fatalf("churn.seed override: %v", perr)
	}

	// Multi-line scripts travel as a list of lines.
	doc3 := "apps:\n  - app: chord\nchurn:\n  script:\n    - at 30s join 10\n    - at 60s leave 5\n"
	if _, perr := Compile([]byte(doc3), Options{}); perr != nil {
		t.Fatalf("script list: %v", perr)
	}
}

// TestCompileTrace exercises the Open hook: references resolve through
// the caller's loader, and are declined with a typed error without one.
func TestCompileTrace(t *testing.T) {
	t.Parallel()
	doc := "apps:\n  - app: chord\nchurn:\n  trace: nodes.trace\n"
	trace := "0.5 join 1\n1.5 leave 1\n"
	wire, perr := Compile([]byte(doc), Options{Open: func(path string) ([]byte, error) {
		if path != "nodes.trace" {
			return nil, fmt.Errorf("unexpected ref %q", path)
		}
		return []byte(trace), nil
	}})
	if perr != nil {
		t.Fatalf("compile with loader: %v", perr)
	}
	if !strings.Contains(string(wire), `"churn"`) {
		t.Errorf("trace did not compile into churn events: %s", wire)
	}
	_, perr = Compile([]byte(doc), Options{})
	if perr == nil || perr.Code != ErrUnsupported || perr.Path != "churn.trace" {
		t.Errorf("trace without loader = %v, want unsupported at churn.trace", perr)
	}
	_, perr = Compile([]byte(doc), Options{Open: func(string) ([]byte, error) {
		return nil, fmt.Errorf("no such file")
	}})
	if perr == nil || perr.Code != ErrBadValue {
		t.Errorf("unreadable trace = %v, want bad_value", perr)
	}
}

// TestCompileErrors pins the typed code, schema path and document
// position of every compiler-level rejection.
func TestCompileErrors(t *testing.T) {
	t.Parallel()
	for _, tc := range compileErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, perr := Compile([]byte(tc.doc), Options{})
			if perr == nil {
				t.Fatalf("compiled without error")
			}
			if perr.Code != tc.code || perr.Path != tc.path {
				t.Errorf("error = %s at %q, want %s at %q (%v)", perr.Code, perr.Path, tc.code, tc.path, perr)
			}
			if perr.Line != tc.line || perr.Col != tc.col {
				t.Errorf("position = %d:%d, want %d:%d (%v)", perr.Line, perr.Col, tc.line, tc.col, perr)
			}
		})
	}
}

const appPrefix = "apps:\n  - app: chord\n" // 2 lines of valid prefix

var compileErrorCases = []struct {
	name      string
	doc       string
	code      ErrorCode
	path      string
	line, col int
}{
	{"unknown top field", appPrefix + "bogus: 1\n", ErrUnknownField, "bogus", 3, 1},
	{"missing apps", "name: x\n", ErrMissing, "apps", 1, 1},
	{"apps not a list", "apps: 3\n", ErrBadValue, "apps", 1, 7},
	{"unknown app", "apps:\n  - app: quux\n", ErrUnknownApp, "apps[0].app", 2, 10},
	{"app entry not a mapping", "apps:\n  - chord\n", ErrBadValue, "apps[0]", 2, 5},
	{"app name missing", "apps:\n  - nodes: 3\n", ErrMissing, "apps[0].app", 2, 5},
	{"unknown app field", "apps:\n  - app: chord\n    size: 3\n", ErrUnknownField, "apps[0].size", 3, 5},
	{"unknown param", "apps:\n  - app: chord\n    params:\n      qux: 1\n", ErrUnknownParam, "apps[0].params.qux", 4, 7},
	{"param bad value", "apps:\n  - app: chord\n    params:\n      bits: fast\n", ErrBadValue, "apps[0].params.bits", 4, 13},
	{"param out of range", "apps:\n  - app: chord\n    params:\n      bits: 99\n", ErrOutOfRange, "apps[0].params.bits", 4, 13},
	{"param kind mismatch", "apps:\n  - app: chord\n    params:\n      fault_tolerant: 1\n", ErrBadValue, "apps[0].params.fault_tolerant", 4, 23},
	{"params not a mapping", "apps:\n  - app: chord\n    params: 3\n", ErrBadValue, "apps[0].params", 3, 13},
	{"report without collect", "apps:\n  - app: chord\n    params:\n      report: true\n", ErrBadValue, "", 4, 15},
	{"nodes out of range", appPrefix[:len(appPrefix)-1] + "\n    nodes: 0\n", ErrOutOfRange, "apps[0].nodes", 3, 12},
	{"superset out of range", appPrefix[:len(appPrefix)-1] + "\n    superset: 99\n", ErrOutOfRange, "apps[0].superset", 3, 15},
	{"port is not a key", appPrefix[:len(appPrefix)-1] + "\n    port: 9000\n", ErrUnknownField, "apps[0].port", 3, 5},
	{"testbed unknown kind", "testbed:\n  kind: mars\n  daemons: 5\n" + appPrefix, ErrBadValue, "testbed.kind", 2, 9},
	{"testbed missing kind", "testbed:\n  daemons: 5\n" + appPrefix, ErrMissing, "testbed.kind", 2, 3},
	{"testbed missing daemons", "testbed:\n  kind: live\n" + appPrefix, ErrMissing, "testbed.daemons", 2, 3},
	{"daemons out of range", "testbed:\n  kind: live\n  daemons: 0\n" + appPrefix, ErrOutOfRange, "testbed.daemons", 3, 12},
	{"rtt on non-uniform", "testbed:\n  kind: live\n  daemons: 5\n  rtt: 10ms\n" + appPrefix, ErrBadValue, "testbed.rtt", 4, 8},
	{"bps on non-uniform", "testbed:\n  kind: live\n  daemons: 5\n  bps: 1mbps\n" + appPrefix, ErrBadValue, "testbed.bps", 4, 8},
	{"env unknown cap", appPrefix[:len(appPrefix)-1] + "\n    env:\n      caps: [disk]\n", ErrBadValue, "apps[0].env.caps", 4, 14},
	{"env caps scalar not all", appPrefix[:len(appPrefix)-1] + "\n    env:\n      caps: some\n", ErrBadValue, "apps[0].env.caps", 4, 13},
	{"env empty caps list", appPrefix[:len(appPrefix)-1] + "\n    env:\n      caps: []\n", ErrBadValue, "apps[0].env.caps", 4, 13},
	{"metrics_port is not a key", appPrefix + "collect:\n  metrics_port: 7000\n", ErrUnknownField, "collect.metrics_port", 4, 3},
	{"churn needs one source", appPrefix + "churn:\n  seed: 3\n", ErrBadValue, "churn", 4, 3},
	{"churn bad script", appPrefix + "churn:\n  script: garbage here\n", ErrBadValue, "churn.script", 4, 11},
	{"faults declare nothing", appPrefix + "faults:\n  eval_every: 0\n", ErrMissing, "faults", 4, 3},
	{"event missing at", appPrefix + "faults:\n  events:\n    - kind: crash\n      count: 1\n", ErrMissing, "faults.events[0].at", 5, 7},
	{"event unknown kind", appPrefix + "faults:\n  events:\n    - at: 1s\n      kind: meteor\n", ErrBadValue, "faults.events[0].kind", 6, 13},
	{"crash needs a target", appPrefix + "faults:\n  events:\n    - at: 1s\n      kind: crash\n", ErrMissing, "faults.events[0]", 5, 7},
	{"partition fraction bounds", appPrefix + "faults:\n  events:\n    - at: 1s\n      kind: partition\n      fraction: 100%\n", ErrOutOfRange, "faults.events[0].fraction", 5, 7},
	{"rule missing when", appPrefix + "faults:\n  rules:\n    - name: r\n      do: heal\n", ErrMissing, "faults.rules[0].when", 5, 7},
	{"rule bad condition", appPrefix + "faults:\n  rules:\n    - name: r\n      when: whenever\n      do: heal\n", ErrBadValue, "faults.rules[0].when", 6, 13},
	{"rule unknown stat", appPrefix + "faults:\n  rules:\n    - name: r\n      when: median(x) > 1\n      do: heal\n", ErrBadValue, "faults.rules[0].when", 6, 13},
	{"nodes takes no metric", appPrefix + "faults:\n  rules:\n    - name: r\n      when: nodes(x) > 1\n      do: heal\n", ErrBadValue, "faults.rules[0].when", 6, 13},
	{"rule inject unsupported", appPrefix + "faults:\n  rules:\n    - name: r\n      when: nodes() < 5\n      do: inject crash\n", ErrUnsupported, "faults.rules[0].do", 7, 11},
	{"kill percent bounds", appPrefix + "faults:\n  rules:\n    - name: r\n      when: nodes() < 5\n      do: kill 150%\n", ErrBadValue, "faults.rules[0].do", 7, 11},
	{"assert needs a kind", appPrefix + "assert:\n  - name: a\n", ErrMissing, "assert[0]", 4, 5},
	{"assert exactly one kind", appPrefix + "assert:\n  - name: a\n    eventually: nodes() > 1\n    always: nodes() > 1\n", ErrBadValue, "assert[0]", 4, 5},
	{"controller_port is not a key", appPrefix + "controller_port: 5555\n", ErrUnknownField, "controller_port", 3, 1},
	{"settle is not a key", appPrefix + "settle: 45s\n", ErrUnknownField, "settle", 3, 1},
}

// TestIsDocument pins the wire-vs-document sniff.
func TestIsDocument(t *testing.T) {
	t.Parallel()
	for _, doc := range []string{"apps:\n", "  \n# c\nname: x", "", "name: x"} {
		if !IsDocument([]byte(doc)) {
			t.Errorf("IsDocument(%q) = false", doc)
		}
	}
	for _, wire := range []string{`{"apps":[]}`, "  {\n}", "\n\t{}"} {
		if IsDocument([]byte(wire)) {
			t.Errorf("IsDocument(%q) = true", wire)
		}
	}
}

// TestValidateWire covers the hosting plane's admission check over
// already-serialized scenarios.
func TestValidateWire(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		wire string
		code ErrorCode
		path string
	}{
		{"ok", `{"apps":[{"app":"chord","params":{"bits":16}}]}`, "", ""},
		{"no params ok", `{"apps":[{"app":"chord"}]}`, "", ""},
		{"missing app name", `{"apps":[{"nodes":3}]}`, ErrMissing, "apps[0].app"},
		{"unknown app", `{"apps":[{"app":"quux"}]}`, ErrUnknownApp, "apps[0]"},
		{"unknown param", `{"apps":[{"app":"chord","params":{"qux":1}}]}`, ErrUnknownParam, "apps[0].params.qux"},
		{"out of range", `{"apps":[{"app":"chord","params":{"bits":99}}]}`, ErrOutOfRange, "apps[0].params.bits"},
		{"kind mismatch", `{"apps":[{"app":"chord","params":{"bits":2.5}}]}`, ErrBadValue, "apps[0].params.bits"},
		{"integral float for an int", `{"apps":[{"app":"chord","params":{"bits":16.0}}]}`, ErrBadValue, "apps[0].params.bits"},
		{"exponent for a duration", `{"apps":[{"app":"cyclon","params":{"shuffle_every":5e9}}]}`, ErrBadValue, "apps[0].params.shuffle_every"}, {"bool mismatch", `{"apps":[{"app":"chord","params":{"fault_tolerant":"yes"}}]}`, ErrBadValue, "apps[0].params.fault_tolerant"},
		{"second app checked", `{"apps":[{"app":"chord"},{"app":"cyclon","params":{"view_size":0}}]}`, ErrOutOfRange, "apps[1].params.view_size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, err := wire.Decode([]byte(tc.wire))
			if err != nil {
				t.Fatal(err)
			}
			perr := ValidateWire(w, nil)
			if tc.code == "" {
				if perr != nil {
					t.Fatalf("valid wire rejected: %v", perr)
				}
				return
			}
			if perr == nil {
				t.Fatalf("accepted, want %s", tc.code)
			}
			if perr.Code != tc.code || perr.Path != tc.path {
				t.Errorf("error = %s at %q, want %s at %q (%v)", perr.Code, perr.Path, tc.code, tc.path, perr)
			}
		})
	}
}

// TestCatalogListing covers the catalog's public listing surface, which
// "splayctl catalog" renders.
func TestCatalogListing(t *testing.T) {
	t.Parallel()
	c := Builtins()
	names := c.Names()
	for _, want := range []string{"bittorrent", "chord", "cyclon", "epidemic", "pastry"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("catalog lacks %q: %v", want, names)
		}
	}
	chord, ok := c.Lookup("chord")
	if !ok {
		t.Fatal("no chord schema")
	}
	bits, ok := chord.Param("bits")
	if !ok || bits.Kind != apps.KindInt || !bits.Bounded {
		t.Errorf("chord.bits schema = %+v", bits)
	}
	if got := bits.FormatBounds(); got != "1..52" {
		t.Errorf("bits bounds = %q", got)
	}
	if got := bits.FormatDefault(); got != "24" {
		t.Errorf("bits default = %q", got)
	}
	cyclon, _ := c.Lookup("cyclon")
	se, _ := cyclon.Param("shuffle_every")
	if got := se.FormatDefault(); got != "5s" {
		t.Errorf("shuffle_every default = %q", got)
	}
	if got := se.FormatBounds(); got != "100ms..10m0s" {
		t.Errorf("shuffle_every bounds = %q", got)
	}
	// Registration rejects duplicates and anonymous schemas.
	fresh := NewCatalog()
	if err := fresh.Register(apps.Schema{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Register(apps.Schema{Name: "x"}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := fresh.Register(apps.Schema{}); err == nil {
		t.Error("anonymous schema accepted")
	}
}
