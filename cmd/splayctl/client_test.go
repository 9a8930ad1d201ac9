package main

// The real client against a real platform handler: a live loopback
// session hosts two tenants and an operator behind httptest, and every
// subcommand runs through run() exactly as main calls it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// platform starts n live daemons hosting tenants alice (ka) and bob (kb)
// and serves the session's handler; operatorKey "" leaves the operator
// routes closed.
func platform(t *testing.T, n int, operatorKey string) (url string) {
	t.Helper()
	sess, err := splay.Scenario{
		Name:    "resident",
		Testbed: splay.Live(n),
		Collect: splay.Collect{Metrics: true, ReportEvery: 100 * time.Millisecond},
		Apps: []splay.AppSpec{
			{Name: "idler", App: splay.AppFunc(func(env *splay.Env) error { return nil })},
			{Name: "cyclon"}, // by name, as -f documents reference it
		},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Stop)
	host, err := sess.Host(splay.HostConfig{
		Tenants:     []splay.HostTenant{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb"}},
		OperatorKey: operatorKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(host.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// ctl runs one splayctl command line.
func ctl(ctx context.Context, stdin string, args ...string) (stdout string, err error) {
	var out, diag bytes.Buffer
	err = run(ctx, args, strings.NewReader(stdin), &out, &diag)
	return out.String(), err
}

// refusal unwraps the typed error a platform refusal must arrive as.
func refusal(t *testing.T, err error) string {
	t.Helper()
	var herr *splay.HostError
	if !errors.As(err, &herr) {
		t.Fatalf("err = %v (%T), want a *splay.HostError", err, err)
	}
	if errors.Is(err, errUsage) {
		t.Errorf("platform refusal %v is routed as a usage error", err)
	}
	return string(herr.Code)
}

func TestClientAgainstPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	url := platform(t, 6, "ko")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	must := func(stdin string, args ...string) string {
		t.Helper()
		out, err := ctl(ctx, stdin, args...)
		if err != nil {
			t.Fatalf("splayctl %s: %v", strings.Join(args, " "), err)
		}
		return out
	}

	// The tenant chain: submit (flags, then a document compiled
	// client-side), list, inspect, follow, kill, account.
	var res splay.HostResult
	out := must("", "submit", "-key", "ka", "-app", "idler", "-nodes", "2", "-duration", "1s", "-name", "a", "-wait", url)
	if err := json.Unmarshal([]byte(out), &res); err != nil || res.State != splay.HostDone || res.Apps[0].Deployed != 2 {
		t.Fatalf("submit -wait printed %s (%v), want a done result with 2 deployed", out, err)
	}
	done := res.ID
	out = must("name: doc\napps:\n  - app: cyclon\n    nodes: 2\n    params:\n      report: true\ncollect:\n  metrics: true\nduration: 1s\n",
		"submit", "-key", "ka", "-f", "-", "-wait", url)
	if err := json.Unmarshal([]byte(out), &res); err != nil || res.State != splay.HostDone || res.Name != "doc" {
		t.Fatalf("submit -f - -wait printed %s (%v), want the document's job done", out, err)
	}
	var job splay.HostJob
	out = must("", "submit", "-key", "ka", "-app", "idler", "-nodes", "2", "-duration", "1h", url)
	if err := json.Unmarshal([]byte(out), &job); err != nil || job.ID == "" {
		t.Fatalf("submit printed %s (%v), want the queued job", out, err)
	}
	if out = must("", "jobs", "-key", "ka", url); !strings.Contains(out, done) || !strings.Contains(out, job.ID) {
		t.Errorf("jobs lists\n%s\nwant %s and %s", out, done, job.ID)
	}
	if out = must("", "jobs", "-key", "kb", url); strings.Contains(out, job.ID) {
		t.Errorf("bob's listing shows alice's job:\n%s", out)
	}
	out = must("", "jobs", "-key", "ka", "-job", job.ID, url)
	if err := json.Unmarshal([]byte(out), &job); err != nil || job.Tenant != "alice" {
		t.Errorf("jobs -job printed %s (%v)", out, err)
	}
	if out = must("", "watch", "-key", "ka", "-job", done, url); !strings.Contains(out, done+" done nodes=2") {
		t.Errorf("watch -job on a finished job printed %q", out)
	}
	if out = must("", "kill", "-key", "ka", "-job", job.ID, url); out != "killed "+job.ID+"\n" {
		t.Errorf("kill printed %q", out)
	}
	if out, err := ctl(ctx, "", "watch", "-key", "ka", "-job", job.ID, "-every", "20ms", url); err == nil ||
		!strings.Contains(err.Error(), "settled as killed") || !strings.Contains(out, "killed") {
		t.Errorf("watch -job on the killed job = %q, %v; want its last row and a failure", out, err)
	}
	var usage splay.HostUsage
	out = must("", "usage", "-key", "ka", "-tenant", "alice", url)
	if err := json.Unmarshal([]byte(out), &usage); err != nil || usage.TotalJobs != 3 {
		t.Errorf("usage printed %s (%v), want 3 jobs in total", out, err)
	}

	// The operator chain, same URL: the merged metric view, then drills.
	wctx, stop := context.WithTimeout(ctx, 500*time.Millisecond)
	out, err := ctl(wctx, "", "watch", "-key", "ko", "-every", "100ms", url)
	stop()
	if err != nil {
		t.Errorf("watch ended by its context returned %v", err)
	}
	for _, want := range []string{" series\n", "ctl.frames", "host.deploys.alice", "cyclon."} {
		if !strings.Contains(out, want) {
			t.Errorf("watch table lacks %q:\n%s", want, out)
		}
	}
	if out = must("", "daemons", "-key", "ko", url); !strings.Contains(out, `"daemons":6`) {
		t.Errorf("daemons printed %q", out)
	}
	if out = must("", "faults", "inject", "-key", "ko", "-kind", "crash", "-count", "1", url); !strings.Contains(out, `"dropped":["127.0.1.1"]`) {
		t.Errorf("crash drill printed %q", out)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(must("", "daemons", "-key", "ko", url), `"daemons":5`); {
		if time.Now().After(deadline) {
			t.Fatal("the crashed daemon's session never left the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Half of the five left is three: a drill's fraction rounds to the
	// nearest daemon, as a plan's partition does.
	if out = must("", "faults", "inject", "-key", "ko", "-kind", "partition", "-fraction", "0.5", url); !strings.Contains(out, `"blacklisted":["127.0.1.2","127.0.1.3","127.0.1.4"]`) {
		t.Errorf("partition drill printed %q", out)
	}
	if out = must("", "faults", "heal", "-key", "ko", url); !strings.Contains(out, `"healed":true`) {
		t.Errorf("heal printed %q", out)
	}

	// Refusals: each the platform's typed error, none a usage error.
	for _, tc := range []struct {
		want  string
		args  []string
		stdin string
	}{
		{want: "auth", args: []string{"jobs", "-key", "nope", url}},
		{want: "auth", args: []string{"usage", "-key", "kb", "-tenant", "alice", url}},
		{want: "auth", args: []string{"daemons", "-key", "ka", url}},
		{want: "auth", args: []string{"watch", "-key", "ka", url}},
		{want: "auth", args: []string{"faults", "heal", "-key", "kb", url}},
		{want: "unknown_job", args: []string{"jobs", "-key", "ka", "-job", "j999", url}},
		{want: "unknown_job", args: []string{"kill", "-key", "kb", "-job", done, url}},
		{want: "unknown_job", args: []string{"watch", "-key", "ka", "-job", "j999", url}},
		{want: "bad_request", args: []string{"faults", "inject", "-key", "ko", "-count", "0", url}},
		{want: "bad_request", args: []string{"faults", "inject", "-key", "ko", "-kind", "meteor", "-count", "1", url}},
		{want: "capacity", args: []string{"submit", "-key", "ka", "-app", "idler", "-nodes", "100", url}},
		{want: "bad_scenario", args: []string{"submit", "-key", "ka", "-f", "-", url}, stdin: `{"apps":[{"app":"idler","node":1}]}`},
	} {
		if _, err := ctl(ctx, tc.stdin, tc.args...); err == nil || refusal(t, err) != tc.want {
			t.Errorf("splayctl %s = %v, want %s", strings.Join(tc.args, " "), err, tc.want)
		}
	}
	c := &cmd{ctx: ctx, key: "ko", timeout: time.Second}
	if _, err := c.operate(http.MethodPost, url+"/faults/inject", []byte(`{broken`)); err == nil || refusal(t, err) != "bad_request" {
		t.Errorf("malformed fault body = %v, want bad_request", err)
	}
}

// TestOperatorRoutesClosedByDefault: a platform started without an
// operator key refuses every operator subcommand, whatever key is shown.
func TestOperatorRoutesClosedByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	url := platform(t, 1, "")
	for _, args := range [][]string{
		{"daemons"}, {"watch"}, {"faults", "inject", "-count", "1"}, {"faults", "heal"},
	} {
		for _, key := range []string{"ka", "ko", "splay"} {
			line := append(append([]string{}, args...), "-key", key, url)
			if _, err := ctl(context.Background(), "", line...); err == nil || refusal(t, err) != "auth" {
				t.Errorf("splayctl %s = %v, want auth", strings.Join(line, " "), err)
			}
		}
	}
}

// TestUsageErrors: command-line mistakes are errUsage (exit 2) and never
// reach the network.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		nil,
		{"serve"},
		{"jobs", "-key", "ka"},               // no URL
		{"jobs", "http://127.0.0.1:1"},       // no key
		{"jobs", "-nosuchflag"},              // bad flag
		{"kill", "-key", "ka", "http://x"},   // no -job
		{"usage", "-key", "ka", "http://x"},  // no -tenant
		{"faults", "-key", "ko", "http://x"}, // -key is not an action
		{"faults", "melt", "-key", "ko", "http://x"},
		{"apply"},
		{"apply", "-host", "http://x", "doc.yaml"}, // no key
		{"validate"},
	} {
		if _, err := ctl(context.Background(), "", args...); !errors.Is(err, errUsage) {
			t.Errorf("splayctl %s = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	if _, err := ctl(context.Background(), "", "validate", "testdata/nosuch.yaml"); err == nil || errors.Is(err, errUsage) {
		t.Errorf("validate of a missing file = %v, want a plain failure", err)
	}
}
