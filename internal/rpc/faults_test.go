package rpc

import (
	"errors"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/transport"
)

// TestFaultHookDropsAndDelays checks the fault-plane filter as a host
// grants it — on the context, where NewClient finds it: drop verdicts fail
// by timeout, delay verdicts stall the call, clearing the filter restores
// normal service, and a context granted nothing yields a bare client.
func TestFaultHookDropsAndDelays(t *testing.T) {
	e := newEnv(t, 2)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		rules := faults.NewRPCRules(7)
		ctx := e.ctx(0)
		if NewClient(ctx).Fault != nil {
			t.Error("client of an ungranted context carries a fault hook")
		}
		ctx.Grant(core.Grant{RPCFault: rules.Check})
		c := NewClient(ctx)

		// No rules: a plain call.
		if _, err := c.Call(addr, "echo", "a"); err != nil {
			t.Errorf("clean call: %v", err)
		}

		rules.Add(faults.RPCRule{Method: "echo", Drop: 1})
		start := e.k.Now()
		_, err := c.CallTimeout(addr, 2*time.Second, "echo", "b")
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("dropped call: err = %v, want timeout", err)
		}
		if took := e.k.Now().Sub(start); took != 2*time.Second {
			t.Errorf("dropped call returned after %s, want the full 2s", took)
		}
		// Other methods are untouched.
		if _, err := c.Call(addr, "add", 1, 2); err != nil {
			t.Errorf("unmatched method: %v", err)
		}

		rules.Clear()
		rules.Add(faults.RPCRule{Method: "echo", Delay: 300 * time.Millisecond})
		start = e.k.Now()
		if _, err := c.Call(addr, "echo", "c"); err != nil {
			t.Errorf("delayed call: %v", err)
		}
		if took := e.k.Now().Sub(start); took < 300*time.Millisecond {
			t.Errorf("delayed call returned in %s, want ≥ 300ms", took)
		}

		rules.Clear()
		if _, err := c.Call(addr, "echo", "d"); err != nil {
			t.Errorf("call after clear: %v", err)
		}
	})
	e.k.Run()
}

// TestRedialBackoffPacesDials checks that with backoff enabled, repeat
// dials to a dead destination wait the schedule's delays, and a
// successful dial resets the clock.
func TestRedialBackoffPacesDials(t *testing.T) {
	e := newEnv(t, 2)
	addr := transport.Addr{Host: "n1", Port: 8000}
	var gaps []time.Duration
	e.k.Go(func() {
		c := NewClient(e.ctx(0))
		c.SetRedialBackoff(faults.Backoff{Base: time.Second, Max: 8 * time.Second, Factor: 2})

		// Three failed dials: refusal is instant (one RTT), so the gap
		// between consecutive attempts is the backoff delay.
		prev := e.k.Now()
		for i := 0; i < 3; i++ {
			if _, err := c.Call(addr, "echo", "x"); err == nil {
				t.Error("call to a dead port succeeded")
			}
			now := e.k.Now()
			gaps = append(gaps, now.Sub(prev))
			prev = now
		}

		// Server comes up; the next (paced) dial succeeds and resets.
		startEchoServer(t, e.ctx(1), 8000)
		if _, err := c.Call(addr, "echo", "y"); err != nil {
			t.Errorf("call after server start: %v", err)
		}
		c.mu.Lock()
		rs := c.redials[addr]
		c.mu.Unlock()
		if rs != nil {
			t.Errorf("redial state not evicted after success: %+v", rs)
		}
	})
	e.k.Run()
	// gap[0] has no backoff (first dial); gap[1] ≥ 1s; gap[2] ≥ 2s.
	if len(gaps) != 3 {
		t.Fatalf("gaps = %v", gaps)
	}
	if gaps[1] < time.Second || gaps[2] < 2*time.Second {
		t.Fatalf("backoff pacing not applied: gaps = %v", gaps)
	}
}

// TestBackoffDisabledAddsNothing checks the default client never touches
// the redial map (the allocation profile BenchmarkRPCThroughput gates).
func TestBackoffDisabledAddsNothing(t *testing.T) {
	e := newEnv(t, 2)
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		if _, err := c.Call(transport.Addr{Host: "n1", Port: 8000}, "echo", "x"); err != nil {
			t.Errorf("call: %v", err)
		}
		if c.redials != nil {
			t.Error("redial map allocated without Redials instrument or backoff")
		}
	})
	e.k.Run()
}
