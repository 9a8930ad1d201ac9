package hosting

// Admission-time config validation: the hosting plane accepts scenario
// documents (compiled at the door to canonical wire bytes) and
// validates plain wire submissions against the app catalog, rejecting
// both as typed bad_scenario errors carrying the offending field.

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/config"
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

// TestFieldOverHTTP round-trips the offending field through the HTTP
// error body: writeErr serializes it, DecodeError recovers it.
func TestFieldOverHTTP(t *testing.T) {
	t.Parallel()
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
