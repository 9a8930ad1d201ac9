package splay_test

// Hosting plane at the SDK surface: a live loopback fleet hosts two
// tenants submitting concurrently over the real HTTP API through
// splay.Connect (run under -race in CI's hostplane job), plus the
// submit-to-start latency benchmark behind BENCH_host.json.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// residentScenario provisions the platform fleet: n live daemons and a
// registry holding the "idler" app hosted submissions reference.
func residentScenario(n int) splay.Scenario {
	return splay.Scenario{
		Name:    "resident",
		Testbed: splay.Live(n),
		Apps: []splay.AppSpec{{
			Name: "idler",
			App:  splay.AppFunc(func(env *splay.Env) error { return nil }),
		}},
	}
}

// hostedJob builds a submission referencing the platform's app by name.
func hostedJob(name string, nodes int, dur time.Duration) splay.Scenario {
	return splay.Scenario{
		Name:     name,
		Apps:     []splay.AppSpec{{Name: "idler", Nodes: nodes}},
		Duration: dur,
	}
}

func TestHostPlaneLiveLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	sess, err := residentScenario(6).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{
			{Name: "alice", Key: "ka", Quota: splay.HostQuota{MaxNodes: 4}},
			{Name: "bob", Key: "kb"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Two tenants run overlapping jobs through the wire API.
	var wg sync.WaitGroup
	results := make([]splay.HostResult, 2)
	errs := make([]error, 2)
	for i, sub := range []struct{ key, name string }{{"ka", "a"}, {"kb", "b"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := splay.Connect(srv.URL, sub.key)
			cl.Poll = 50 * time.Millisecond
			results[i], errs[i] = cl.Run(ctx, hostedJob(sub.name, 2, 2*time.Second))
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].State != splay.HostDone {
			t.Errorf("job %d state = %s, want done: %s", i, results[i].State, results[i].Error)
		}
		if len(results[i].Apps) != 1 || results[i].Apps[0].Deployed != 2 {
			t.Errorf("job %d placement = %+v", i, results[i].Apps)
		}
	}

	// Quota exhaustion is a typed error over the wire, not a hang.
	alice := splay.Connect(srv.URL, "ka")
	if _, err := alice.Submit(ctx, hostedJob("big", 5, time.Second)); err == nil {
		t.Error("over-quota submission accepted")
	} else {
		var herr *splay.HostError
		if !errors.As(err, &herr) || string(herr.Code) != "quota" {
			t.Errorf("over-quota error = %v, want HostError quota", err)
		}
	}
	// So is a bad key.
	if _, err := splay.Connect(srv.URL, "nope").Jobs(ctx); err == nil {
		t.Error("bad key accepted")
	} else {
		var herr *splay.HostError
		if !errors.As(err, &herr) || string(herr.Code) != "auth" {
			t.Errorf("bad-key error = %v, want HostError auth", err)
		}
	}
	// Usage reflects the finished runs.
	u, err := alice.Usage(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if u.TotalJobs != 1 || u.RunningJobs != 0 {
		t.Errorf("alice usage = %+v, want 1 total job and nothing running (rejects are never admitted)", u)
	}
}

// BenchmarkHostSubmitLatency measures submit-to-start over the live
// hosting plane: the time from POST /jobs to the job reporting running.
func BenchmarkHostSubmitLatency(b *testing.B) {
	sess, err := residentScenario(4).Start(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{{Name: "bench", Key: "kbench"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := hostedJob("bench", 2, time.Hour).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := host.SubmitRaw("kbench", data)
		if err != nil {
			b.Fatal(err)
		}
		for {
			jv, err := host.Job("kbench", view.ID)
			if err != nil {
				b.Fatal(err)
			}
			if jv.State == splay.HostRunning || jv.State.Terminal() {
				if jv.State != splay.HostRunning {
					b.Fatalf("job %s settled as %s: %s", jv.ID, jv.State, jv.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		if err := host.Kill("kbench", view.ID); err != nil {
			b.Fatal(err)
		}
		// Wait for the nodes to come back so the next round starts clean.
		for {
			u, err := host.Usage("kbench", "bench")
			if err != nil {
				b.Fatal(err)
			}
			if u.RunningNodes == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		b.StartTimer()
	}
}

// TestOperatorCrashDrillRecovers: an operator crash drill over the
// hosting plane's HTTP API drops daemon sessions on a session without a
// fault plan, and every dropped daemon redials — within a simulated
// minute the whole fleet is back.
func TestOperatorCrashDrillRecovers(t *testing.T) {
	const fleet = 8
	sess, err := splay.Scenario{Seed: 5, Testbed: splay.ModelNet(fleet)}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{OperatorKey: "ko"})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer ko")
		rec := httptest.NewRecorder()
		sess.Go(func() { host.Handler().ServeHTTP(rec, req) })
		sess.RunFor(50 * time.Millisecond) // before the first redial, at least 100ms after a drop
		return rec
	}
	var crash struct{ Dropped []string }
	rec := serve("POST", "/faults/inject", `{"kind":"crash","count":3}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &crash); err != nil || len(crash.Dropped) != 3 {
		t.Fatalf("crash drill answered %d %s, want 3 daemons dropped", rec.Code, rec.Body)
	}
	if got := sess.Daemons(); got != fleet-3 {
		t.Fatalf("%d daemons right after the drill, want %d", got, fleet-3)
	}
	sess.RunFor(60 * time.Second)
	var n struct{ Daemons int }
	rec = serve("GET", "/daemons", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &n); err != nil || n.Daemons != fleet {
		t.Fatalf("GET /daemons a minute after the drill = %d %s, want all %d", rec.Code, rec.Body, fleet)
	}
}
