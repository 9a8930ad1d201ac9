package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/hosting"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/transport"
)

// TestRunHost runs host mode against in-process loopback daemons built
// from the daemon mode's own registry: a hosted built-in with report:
// true streams to the platform's aggregator, so its series stand in
// /metrics beside the controller's and the service's; and ending the
// context with that job still running stops it on every daemon before
// runHost returns.
func TestRunHost(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type bound struct {
		ctl, agg transport.Addr
		api      net.Addr
	}
	up := make(chan bound, 1)
	done := make(chan error, 1)
	go func() {
		done <- runHost(ctx, core.NewLiveRuntime(1), livenet.NewNode("127.0.0.1"), hostOptions{
			port: controller.PortEphemeral, tenants: []hosting.Tenant{{Name: "alice", Key: "ka"}},
			operatorKey: "ko", metricsKey: "km",
		}, func(ctl, agg transport.Addr, api net.Addr) { up <- bound{ctl, agg, api} })
	}()
	var at bound
	select {
	case at = <-up:
	case err := <-done:
		t.Fatalf("runHost: %v", err)
	}
	url := fmt.Sprintf("http://127.0.0.1:%d", at.api.(*net.TCPAddr).Port)

	// Instances may not dial the controller's own host (it is blacklisted
	// for applications), so the daemons name the platform's aggregator by
	// another loopback address — what -metrics is given in production.
	maddr := transport.Addr{Host: "127.0.2.1", Port: at.agg.Port}
	rt := core.NewLiveRuntime(1)
	var daemons []*daemon.Daemon
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("127.0.3.%d", i+1)
		cfg := daemon.DefaultConfig(name)
		cfg.PortLow, cfg.PortHigh = 31000+100*i, 31099+100*i
		d := daemon.New(rt, livenet.NewNode(name), builtinRegistry(maddr, "km"), cfg, nil)
		if err := d.Connect(at.ctl); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		daemons = append(daemons, d)
	}
	operator := func(path string, into any) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer ko")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s (%v)", path, resp.StatusCode, body, err)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v in %s", path, err, body)
		}
	}
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(50 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	eventually("three registered daemons", func() bool {
		var n struct{ Daemons int }
		operator("/daemons", &n)
		return n.Daemons == 3
	})

	job, err := splay.Connect(url, "ka").Submit(ctx, splay.Scenario{
		Name:     "gossip",
		Apps:     []splay.AppSpec{{Name: "cyclon", Nodes: 3, Params: []byte(`{"report":true}`)}},
		Collect:  splay.Collect{Metrics: true},
		Duration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []splay.SeriesSnapshot
	eventually("ctl.*, host.* and cyclon.* series in /metrics", func() bool {
		operator("/metrics", &snaps)
		seen := map[string]bool{}
		for _, s := range snaps {
			prefix, _, _ := strings.Cut(s.Name, ".")
			seen[prefix] = true
		}
		return seen["ctl"] && seen["host"] && seen["cyclon"]
	})
	for _, d := range daemons {
		if d.Running() != 1 {
			t.Errorf("a daemon runs %d instances of %s, want 1", d.Running(), job.ID)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("runHost after cancel = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runHost did not return after its context ended")
	}
	for _, d := range daemons {
		if d.Running() != 0 {
			t.Errorf("a daemon still runs %d instances after the platform shut down", d.Running())
		}
	}
}
