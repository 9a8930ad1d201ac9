package hosting

// The platform's one HTTP door on a simulated fleet: the submission size
// bound, the operator routes and their credential, and a fuzzer over
// every route. Requests are served from a kernel task, as a live handler
// serves them from a goroutine.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// serve runs one request through the handler on the fleet's kernel and
// lets the fleet react for settle of virtual time.
func (fl *simFleet) serve(h http.Handler, method, path, key, body string, settle time.Duration) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	fl.k.Go(func() { h.ServeHTTP(rec, req) })
	fl.k.RunFor(settle)
	return rec
}

// TestSubmitOversizeRejected: a config document is line-oriented, so a
// body cut at the size limit can still compile — to a job without its
// tail. The door must refuse it, not run the head.
func TestSubmitOversizeRejected(t *testing.T) {
	fl := newSimFleet(t, 4)
	svc := New(fl.rt, fl.ctl, Config{Catalog: sleeperCatalog(t)})
	if err := svc.AddTenant(Tenant{Name: "gina", Key: "kg"}); err != nil {
		t.Fatal(err)
	}
	const pad = "# padding\n"
	doc := "apps:\n  - app: sleeper\n    nodes: 1\n" +
		strings.Repeat(pad, maxScenarioBytes/len(pad)+1) +
		"  - app: sleeper\n    nodes: 2\n"
	rec := fl.serve(svc.Handler(), "POST", "/jobs", "kg", doc, time.Second)
	jerr := DecodeError(rec.Code, rec.Body.Bytes())
	if rec.Code != http.StatusBadRequest || jerr.Code != ErrBadScenario || jerr.Detail != "body exceeds 4 MiB" {
		t.Errorf("oversize submission answered %d %+v, want 400 bad_scenario", rec.Code, jerr)
	}
	if jobs, err := svc.Jobs("kg"); err != nil || len(jobs) != 0 {
		t.Errorf("jobs after the rejection = %v, %v; want none", jobs, err)
	}
	if u, err := svc.Usage("kg", "gina"); err != nil || u.TotalJobs != 0 {
		t.Errorf("usage after the rejection = %+v, %v; want no job counted", u, err)
	}
}

// TestOperatorRoutes drives the operator half of the door on a simulated
// fleet: one credential guards it, victims are the first names in sorted
// order, and every refusal is typed.
func TestOperatorRoutes(t *testing.T) {
	fl := newSimFleet(t, 6)
	svc := New(fl.rt, fl.ctl, Config{OperatorKey: "ko"})
	if err := svc.AddTenant(Tenant{Name: "hal", Key: "kh"}); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	call := func(method, path, key, body string, into any) ErrorCode {
		t.Helper()
		rec := fl.serve(h, method, path, key, body, 5*time.Second)
		if rec.Code != http.StatusOK {
			jerr := DecodeError(rec.Code, rec.Body.Bytes())
			if rec.Code != httpStatus(jerr.Code) {
				t.Errorf("%s %s: status %d under code %s", method, path, rec.Code, jerr.Code)
			}
			return jerr.Code
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s %s: %v in %s", method, path, err, rec.Body)
		}
		return ""
	}

	// The credential: no key, a tenant's key and a wrong key are all auth;
	// a service without an operator key refuses even the empty one.
	var n struct{ Daemons int }
	for _, key := range []string{"", "kh", "k0"} {
		if c := call("GET", "/daemons", key, "", &n); c != ErrAuth {
			t.Errorf("GET /daemons with key %q = %q, want auth", key, c)
		}
	}
	closed := New(fl.rt, fl.ctl, Config{}).Handler()
	for _, route := range [][2]string{{"GET", "/metrics"}, {"GET", "/daemons"}, {"POST", "/faults/inject"}, {"POST", "/faults/heal"}} {
		rec := fl.serve(closed, route[0], route[1], "", `{"kind":"crash","count":1}`, time.Second)
		if jerr := DecodeError(rec.Code, rec.Body.Bytes()); rec.Code != http.StatusUnauthorized || jerr.Code != ErrAuth {
			t.Errorf("%s %s without an operator key configured = %d %+v, want 401 auth", route[0], route[1], rec.Code, jerr)
		}
	}
	if fl.ctl.Daemons() != 6 {
		t.Fatalf("a refused drill still dropped daemons: %d left", fl.ctl.Daemons())
	}

	if c := call("GET", "/daemons", "ko", "", &n); c != "" || n.Daemons != 6 {
		t.Errorf("GET /daemons = %q %+v, want 6", c, n)
	}
	var snaps []json.RawMessage
	if c := call("GET", "/metrics", "ko", "", &snaps); c != "" || snaps == nil || len(snaps) != 0 {
		t.Errorf("GET /metrics without an aggregator = %q %v, want []", c, snaps)
	}

	for _, body := range []string{`{broken`, `{"kind":"crash"}`, `{"kind":"crash","count":7}`,
		`{"kind":"meteor","count":1}`, `{"kind":"crash","count":1,"nodes":1}`} {
		if c := call("POST", "/faults/inject", "ko", body, nil); c != ErrBadRequest {
			t.Errorf("inject %s = %q, want bad_request", body, c)
		}
	}

	var cut struct{ Blacklisted []string }
	if c := call("POST", "/faults/inject", "ko", `{"kind":"partition","fraction":0.5}`, &cut); c != "" ||
		!slices.Equal(cut.Blacklisted, []string{"n1", "n2", "n3"}) {
		t.Errorf("partition = %q %v, want the first half of the sorted names", c, cut.Blacklisted)
	}
	var healed struct {
		Healed  bool
		Daemons int
	}
	if c := call("POST", "/faults/heal", "ko", "", &healed); c != "" || !healed.Healed || healed.Daemons != 6 {
		t.Errorf("heal = %q %+v", c, healed)
	}
	var crash struct{ Dropped []string }
	if c := call("POST", "/faults/inject", "ko", `{"kind":"crash","count":2}`, &crash); c != "" ||
		!slices.Equal(crash.Dropped, []string{"n1", "n2"}) {
		t.Errorf("crash = %q %v, want n1 and n2 dropped", c, crash.Dropped)
	}
	if got := fl.ctl.Daemons(); got != 4 {
		t.Errorf("%d daemons after crashing 2 of 6 (none reconnect), want 4", got)
	}
}

// FuzzHandler throws arbitrary requests at the door of a platform with a
// job running and another being placed. Whatever arrives: no panic, no
// 5xx, a typed error body under every refusal of a registered route, and
// once the fleet settles every node and queue slot is handed back.
func FuzzHandler(f *testing.F) {
	const wireJob = `{"name":"f","apps":[{"app":"sleeper","nodes":1}],"duration_ns":1000000000}`
	bodies := []string{"", wireJob,
		"apps:\n  - app: sleeper\n    nodes: 2\nduration: 1s\n",
		`{"kind":"crash","count":1}`, `{"kind":"partition","fraction":0.5}`, `{"kind":"crash"}`,
		`{broken`, `{"apps":[{"app":"sleeper","nodes":1}],"name":"a","name":"b"}`,
		`{"apps":[{"app":"sleeper","node":1}]}`}
	for _, route := range [][2]string{
		{"POST", "/jobs"}, {"GET", "/jobs"}, {"GET", "/jobs/j1"}, {"GET", "/jobs/j2/result"},
		{"DELETE", "/jobs/j2"}, {"DELETE", "/jobs/j1"}, {"GET", "/tenants/ivy/usage"},
		{"GET", "/metrics"}, {"GET", "/daemons"}, {"POST", "/faults/inject"}, {"POST", "/faults/heal"},
		{"PUT", "/jobs"}, {"GET", "/nowhere"},
	} {
		for _, key := range []string{"", "ki", "ko"} {
			for _, body := range bodies {
				f.Add(route[0], route[1], key, body, uint8(0))
			}
		}
	}
	f.Add("POST", "/jobs", "ki", "apps:\n  - app: sleeper\n", uint8(140)) // past 4 MiB

	f.Fuzz(func(t *testing.T, method, path, key, body string, pad uint8) {
		// pad grows the body in 32 KiB steps of comment lines, so the
		// size bound is reachable without megabyte corpus entries.
		body += strings.Repeat("# padding 16 b.\n", int(pad)<<11)
		req, err := http.NewRequest(method, "http://platform"+path, strings.NewReader(body))
		if err != nil {
			t.Skip("not a request")
		}
		req.Header.Set("Authorization", "Bearer "+key)

		fl := newSimFleetOf(t, 4, true)
		svc := New(fl.rt, fl.ctl, Config{Catalog: sleeperCatalog(t), OperatorKey: "ko", MaxDuration: 20 * time.Second})
		if err := svc.AddTenant(Tenant{Name: "ivy", Key: "ki"}); err != nil {
			t.Fatal(err)
		}
		mux := svc.Handler().(*http.ServeMux)
		rec := httptest.NewRecorder()
		fl.k.Go(func() { // j1 is running and j2 mid-placement when the request lands
			if _, err := svc.Submit("ki", scenarioJSON("one", 2, time.Hour)); err != nil {
				t.Errorf("j1: %v", err)
			}
			fl.rt.Sleep(5 * time.Second)
			if _, err := svc.Submit("ki", scenarioJSON("two", 2, time.Hour)); err != nil {
				t.Errorf("j2: %v", err)
			}
			mux.ServeHTTP(rec, req)
		})
		fl.k.RunFor(10 * time.Minute)

		if rec.Code >= 500 {
			t.Errorf("%s %q answered %d: %s", method, path, rec.Code, rec.Body)
		}
		if _, pattern := mux.Handler(req); pattern != "" && rec.Code >= 400 {
			if jerr := DecodeError(rec.Code, rec.Body.Bytes()); jerr.Code == "http" || rec.Code != httpStatus(jerr.Code) {
				t.Errorf("%s %q refused with %d and an untyped body: %s", method, path, rec.Code, rec.Body)
			}
		}
		u, err := svc.Usage("ki", "ivy")
		if err != nil {
			t.Fatal(err)
		}
		if u.RunningNodes != 0 || u.RunningJobs != 0 || u.QueuedJobs != 0 {
			t.Errorf("after %s %q the settled platform still holds %+v", method, path, u)
		}
	})
}
