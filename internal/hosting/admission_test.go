package hosting

// Admission-time config validation: the hosting plane accepts scenario
// documents (compiled at the door to canonical wire bytes) and
// validates plain wire submissions against the app catalog, rejecting
// both as typed bad_scenario errors carrying the offending field.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/config"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/wire"
)

// sleeperCatalog declares the test registry's app so documents can
// reference it.
func sleeperCatalog(t *testing.T) *config.Catalog {
	t.Helper()
	c := config.NewCatalog()
	if err := c.Register(apps.Schema{
		Name: "sleeper",
		Params: []apps.Param{
			{Name: "depth", Kind: apps.KindInt, Min: 1, Max: 8, Bounded: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdmissionDocument submits a YAML scenario document through the
// service: it compiles at admission and runs exactly like its wire
// twin.
func TestAdmissionDocument(t *testing.T) {
	fl := newSimFleet(t, 6)
	svc := New(fl.rt, fl.ctl, Config{Catalog: sleeperCatalog(t)})
	if err := svc.AddTenant(Tenant{Name: "dora", Key: "kd"}); err != nil {
		t.Fatal(err)
	}
	doc := []byte("name: docjob\napps:\n  - app: sleeper\n    nodes: 4\nduration: 10s\n")
	var view JobView
	fl.k.Go(func() {
		var err error
		if view, err = svc.Submit("kd", doc); err != nil {
			t.Errorf("document submit: %v", err)
		}
	})
	fl.k.RunFor(time.Minute)
	res, err := svc.Result("kd", view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != Done || len(res.Apps) != 1 || res.Apps[0].Deployed != 4 {
		t.Errorf("document job settled as %+v", res)
	}
}

// TestAdmissionRejections pins the typed bad_scenario rejections:
// malformed documents, out-of-range params, unknown apps in wire JSON —
// each carrying the offending field — and the no-catalog policy.
func TestAdmissionRejections(t *testing.T) {
	fl := newSimFleet(t, 4)
	svc := New(fl.rt, fl.ctl, Config{Catalog: sleeperCatalog(t)})
	if err := svc.AddTenant(Tenant{Name: "eve", Key: "ke"}); err != nil {
		t.Fatal(err)
	}
	field := func(err error) string {
		var jerr *JobError
		if !errors.As(err, &jerr) {
			t.Fatalf("err = %v (%T), want *JobError", err, err)
		}
		if jerr.Code != ErrBadScenario {
			t.Fatalf("code = %s, want %s (%v)", jerr.Code, ErrBadScenario, err)
		}
		return jerr.Field
	}

	_, err := svc.Submit("ke", []byte("apps:\n  - app: sleeper\n    params:\n      depth: 99\n"))
	if got := field(err); got != "apps[0].params.depth" {
		t.Errorf("out-of-range document field = %q (%v)", got, err)
	}
	_, err = svc.Submit("ke", []byte("apps:\n  - app: nosuch\n"))
	if got := field(err); got != "apps[0].app" {
		t.Errorf("unknown-app document field = %q (%v)", got, err)
	}
	_, err = svc.Submit("ke", []byte("apps: oops\n"))
	if got := field(err); got != "apps" {
		t.Errorf("malformed document field = %q (%v)", got, err)
	}

	// Wire JSON is validated against the same catalog.
	_, err = svc.Submit("ke", []byte(`{"apps":[{"app":"nosuch","nodes":2}]}`))
	if got := field(err); got != "apps[0]" {
		t.Errorf("unknown-app wire field = %q (%v)", got, err)
	}
	_, err = svc.Submit("ke", []byte(`{"apps":[{"app":"sleeper","params":{"depth":0},"nodes":2}]}`))
	if got := field(err); got != "apps[0].params.depth" {
		t.Errorf("out-of-range wire field = %q (%v)", got, err)
	}

	// A misspelt member is refused by name, not run with its default.
	_, err = svc.Submit("ke", []byte(`{"apps":[{"app":"sleeper","nodes":2}],"duration":1000000000}`))
	if got := field(err); got != "duration" {
		t.Errorf("misspelt wire member field = %q (%v)", got, err)
	}
	// An entry without nodes is refused as a local run refuses it, not
	// deployed once.
	_, err = svc.Submit("ke", []byte("apps:\n  - app: sleeper\n"))
	if got := field(err); got != "apps[0].nodes" {
		t.Errorf("nodeless document field = %q (%v)", got, err)
	}
	_, err = svc.Submit("ke", []byte(`{"apps":[{"app":"sleeper","nodes":2},{"app":"sleeper"}]}`))
	if got := field(err); got != "apps[1].nodes" {
		t.Errorf("nodeless wire field = %q (%v)", got, err)
	}
	_, err = svc.Submit("ke", []byte(`{broken`))
	if got := field(err); got != "" {
		t.Errorf("unparseable wire field = %q (%v)", got, err)
	}

	// Without a catalog, documents are declined outright (nothing can
	// compile them) and wire JSON passes unvalidated — the pre-config
	// behavior, unchanged.
	bare := New(fl.rt, fl.ctl, Config{})
	if err := bare.AddTenant(Tenant{Name: "frank", Key: "kf"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Submit("kf", []byte("apps:\n  - app: sleeper\n")); err == nil || code(t, err) != ErrBadScenario {
		t.Errorf("catalog-less document submit = %v, want bad_scenario", err)
	}
	if _, err := bare.Submit("kf", []byte(`{"apps":[{"app":"sleeper","node":1}]}`)); err == nil || code(t, err) != ErrBadScenario {
		t.Errorf("catalog-less misspelt wire submit = %v, want bad_scenario", err)
	}
	fl.k.Go(func() {
		if _, err := bare.Submit("kf", []byte(`{"apps":[{"app":"sleeper","nodes":1}],"duration_ns":1000000000}`)); err != nil {
			t.Errorf("catalog-less wire submit: %v", err)
		}
	})
	fl.k.RunFor(time.Second)
}

// TestAdmissionWantsIntegerLiterals: the built-in apps decode integer
// parameters into Go integers, so wire JSON carrying 16.0 where an int
// belongs is refused at the door, naming the parameter, exactly as the
// document form "bits: 16.0" is — not admitted and failed at deploy.
func TestAdmissionWantsIntegerLiterals(t *testing.T) {
	fl := newSimFleet(t, 4)
	svc := New(fl.rt, fl.ctl, Config{Catalog: config.Builtins()})
	if err := svc.AddTenant(Tenant{Name: "gil", Key: "kg"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ wire, field string }{
		{`{"apps":[{"app":"chord","params":{"bits":16.0}}]}`, "apps[0].params.bits"},
		{`{"apps":[{"app":"cyclon","params":{"view_size":8.0}}]}`, "apps[0].params.view_size"},
		{`{"apps":[{"app":"cyclon","params":{"shuffle_every":5e9}}]}`, "apps[0].params.shuffle_every"},
		{"apps:\n  - app: chord\n    params:\n      bits: 16.0\n", "apps[0].params.bits"},
	} {
		_, err := svc.Submit("kg", []byte(tc.wire))
		var jerr *JobError
		if !errors.As(err, &jerr) || jerr.Code != ErrBadScenario || jerr.Field != tc.field {
			t.Errorf("%s: err = %v, want %s at %s", tc.wire, err, ErrBadScenario, tc.field)
		}
	}
}

// unhostedCases are submissions carrying a member the platform would not
// honour, each with the field its refusal must name; the last entries are
// the local-replay members a hosted job carries and ignores.
var unhostedCases = []struct {
	name  string
	set   func(*wire.Scenario)
	field string // "" = admitted
}{
	{"faults", func(w *wire.Scenario) {
		w.Faults = &faults.Plan{Events: []faults.Event{{At: time.Second, Kind: faults.Partition, Fraction: 0.5}}}
	}, "faults"},
	{"empty fault plan", func(w *wire.Scenario) { w.Faults = &faults.Plan{} }, "faults"},
	{"assert", func(w *wire.Scenario) {
		w.Assert = []faults.Assertion{{Name: "a", Kind: faults.Eventually,
			Cond: faults.Condition{Metric: "m"}}}
	}, "assert"},
	{"churn", func(w *wire.Scenario) { w.Churn = []wire.ChurnEvent{{At: time.Second, Join: true}} }, "churn"},
	{"env on the second app", func(w *wire.Scenario) {
		w.Apps = append(w.Apps, wire.App{App: "sleeper", Env: &wire.Env{Net: &sandbox.NetLimits{MaxTxBytes: 64}}})
	}, "apps[1].env"},
	{"caps only", func(w *wire.Scenario) { w.Apps[0].Env = &wire.Env{Caps: wire.CapFS} }, "apps[0].env"},
	{"local-replay members", func(w *wire.Scenario) {
		w.Testbed = &wire.Testbed{Kind: "uniform", Daemons: 4, RTT: time.Millisecond}
		w.Collect = &wire.Collect{Metrics: true}
		w.Workers, w.RegisterTimeout = 2, time.Second
	}, ""},
}

// unhostedWire is a one-app submission with set applied, as wire bytes.
func unhostedWire(t *testing.T, set func(*wire.Scenario)) []byte {
	t.Helper()
	w := &wire.Scenario{Apps: []wire.App{{App: "sleeper", Nodes: 1}}, DurationNS: time.Second}
	set(w)
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmissionRefusesWhatItWillNotHonour: a hosted job places apps and
// nothing else, so a submission whose faults, assertions, churn trace or
// per-app env would be silently dropped is refused as bad_scenario naming
// the member — with or without a catalog — and no job is counted.
func TestAdmissionRefusesWhatItWillNotHonour(t *testing.T) {
	fl := newSimFleet(t, 4)
	for _, cfg := range []Config{{Catalog: sleeperCatalog(t)}, {}} {
		svc := New(fl.rt, fl.ctl, cfg)
		if err := svc.AddTenant(Tenant{Name: "ivy", Key: "ki"}); err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for _, tc := range unhostedCases {
			var err error
			fl.k.Go(func() { _, err = svc.Submit("ki", unhostedWire(t, tc.set)) })
			fl.k.RunFor(time.Second)
			var jerr *JobError
			switch {
			case tc.field == "":
				admitted++
				if err != nil {
					t.Errorf("%s: refused: %v", tc.name, err)
				}
			case !errors.As(err, &jerr) || jerr.Code != ErrBadScenario || jerr.Field != tc.field:
				t.Errorf("%s: err = %v, want bad_scenario naming %q", tc.name, err, tc.field)
			}
		}
		if u, err := svc.Usage("ki", "ivy"); err != nil || u.TotalJobs != admitted {
			t.Errorf("usage = %+v, %v; want %d jobs counted", u, err, admitted)
		}
	}
}

// TestFieldOverHTTP round-trips the offending field through the HTTP
// error body: writeErr serializes it, DecodeError recovers it — from a
// hand-built error, and from a fault drill refused at POST /jobs.
func TestFieldOverHTTP(t *testing.T) {
	t.Parallel()
	fl := newSimFleet(t, 2)
	svc := New(fl.rt, fl.ctl, Config{})
	if err := svc.AddTenant(Tenant{Name: "eve", Key: "ke"}); err != nil {
		t.Fatal(err)
	}
	drill := fl.serve(svc.Handler(), "POST", "/jobs", "ke", string(unhostedWire(t, unhostedCases[0].set)), time.Second)
	if jerr := DecodeError(drill.Code, drill.Body.Bytes()); drill.Code != http.StatusBadRequest ||
		jerr.Code != ErrBadScenario || jerr.Field != "faults" || jerr.Detail == "" {
		t.Errorf("fault drill over HTTP answered %d %+v, want 400 bad_scenario naming faults", drill.Code, jerr)
	}

	rec := httptest.NewRecorder()
	writeErr(rec, &JobError{Code: ErrBadScenario, Tenant: "eve",
		Field: "apps[0].params.depth", Err: &config.Error{Code: config.ErrOutOfRange,
			Path: "apps[0].params.depth", Line: 4, Col: 14, Msg: "9 is outside 1..8"}})
	if rec.Code != 400 {
		t.Errorf("status = %d, want 400", rec.Code)
	}
	jerr := DecodeError(rec.Code, rec.Body.Bytes())
	if jerr.Code != ErrBadScenario || jerr.Field != "apps[0].params.depth" {
		t.Errorf("decoded = %+v, want bad_scenario with field", jerr)
	}
	if jerr.Detail == "" {
		t.Errorf("decoded detail is empty; the config error text should travel")
	}
}
