package rpc

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/transport"
)

// TestInstrumentedCallCounts wires live instruments into a client and
// server and checks every hook fires: calls, errors, timeouts,
// latency observations and byte meters on both sides.
func TestInstrumentedCallCounts(t *testing.T) {
	e := newEnv(t, 2)
	reg := metrics.NewRegistry()
	ins := NewInstruments(reg)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() {
		s := startEchoServer(t, e.ctx(1), 8000)
		s.SetInstruments(ins)
	})
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		c.SetInstruments(ins)
		if _, err := c.Call(addr, "echo", "hello"); err != nil {
			t.Errorf("echo: %v", err)
		}
		if _, err := c.Call(addr, "fail"); err == nil {
			t.Error("fail did not fail")
		}
		if _, err := c.CallTimeout(addr, 2*time.Second, "slow"); err != ErrTimeout {
			t.Errorf("slow returned %v, want timeout", err)
		}
	})
	e.k.Run()

	if got := ins.Calls.Total(); got != 3 {
		t.Errorf("calls %d, want 3", got)
	}
	if got := ins.Errors.Total(); got != 2 {
		t.Errorf("errors %d, want 2", got)
	}
	if got := ins.Timeouts.Total(); got != 1 {
		t.Errorf("timeouts %d, want 1", got)
	}
	if got := ins.Latency.Count(); got != 1 {
		t.Errorf("latency observations %d, want 1 (only successes)", got)
	}
	if ins.Latency.Sum() < int64(20*time.Millisecond) {
		t.Errorf("latency sum %d below one RTT", ins.Latency.Sum())
	}
	// The server saw all three requests; bytes flowed both ways and the
	// client/server meters agree (same frames, mirrored directions).
	if got := ins.Served.Total(); got != 3 {
		t.Errorf("served %d, want 3", got)
	}
	if ins.BytesOut.Total() == 0 || ins.BytesIn.Total() == 0 {
		t.Error("byte meters did not move")
	}
}

// TestInstrumentedRedial breaks a pooled peer and checks the retry
// counter observes the re-dial.
func TestInstrumentedRedial(t *testing.T) {
	e := newEnv(t, 2)
	reg := metrics.NewRegistry()
	ins := NewInstruments(reg)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() { startEchoServer(t, e.ctx(1), 8000) })
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		c.SetInstruments(ins)
		if _, err := c.Call(addr, "echo", "a"); err != nil {
			t.Errorf("first call: %v", err)
		}
		// Bounce the server host: the pooled conn resets, the read loop
		// buries the peer, and the next call re-dials the same address.
		e.nw.Host(1).SetDown(true)
		e.k.Sleep(time.Second) // let the read loop observe the reset
		e.nw.Host(1).SetDown(false)
		// The host is back but its listener died with it, so the call is
		// refused — after re-dialing, which is what Redials meters.
		c.Call(addr, "echo", "b") //nolint:errcheck
	})
	e.k.Run()
	if got := ins.Redials.Total(); got != 1 {
		t.Errorf("redials %d, want 1", got)
	}
}

// TestDeadPeerMarksExpire: the marks that let a redial be counted last
// maxIdle. 200 distinct pooled peers fail under an instrumented client,
// ten at a time; a dial 11 s after the last failure — to one of them,
// back up — is a fresh dial, not a redial, and leaves no mark behind. Kept until
// the same destination was dialed again, the marks grew with every peer
// that ever died under the client.
func TestDeadPeerMarksExpire(t *testing.T) {
	const peers, batch = 200, 10
	e := newEnv(t, 1+peers)
	e.k.Go(func() {
		for i := 1; i <= peers; i++ {
			startEchoServer(t, e.ctx(i), 8000)
		}
	})
	ins := NewInstruments(metrics.NewRegistry())
	c := NewClient(e.ctx(0))
	c.SetInstruments(ins)
	marks := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.failures)
	}
	e.k.GoAfter(time.Second, func() {
		for first := 1; first <= peers; first += batch {
			for i := first; i < first+batch; i++ {
				if _, err := c.Call(echoAddr(i), "echo", "x"); err != nil {
					t.Errorf("echo n%d: %v", i, err)
					return
				}
			}
			for i := first; i < first+batch; i++ {
				e.nw.Host(i).SetDown(true)
			}
			e.k.Sleep(time.Second) // the read loops fail the pooled peers
		}
		if n := marks(); n == 0 || pooled(c) != 0 {
			t.Fatalf("after the failures: %d marks, %d pooled peers; want some marks and no peers", n, pooled(c))
		}
		e.k.Sleep(maxIdle)
		e.nw.Host(peers).SetDown(false) // the last peer comes back
		startEchoServer(t, e.ctx(peers), 8000)
		if _, err := c.Call(echoAddr(peers), "echo", "x"); err != nil {
			t.Errorf("echo n%d, back up: %v", peers, err)
		}
	})
	e.k.Run()
	if n := marks(); n != 0 {
		t.Errorf("%d dead-peer marks left %v after the last failure, want 0", n, maxIdle+time.Second)
	}
	if r := ins.Redials.Total(); r != 0 {
		t.Errorf("a dial %v after its peer failed counted as %d redials, want 0", maxIdle+time.Second, r)
	}
}

// TestInstrumentsCountBytes: the byte instruments are read off the frames
// — written ones from the llenc.Writer's tally, received ones as each
// complete frame reaches dispatch/handleResponse — so what one side counts
// out the other counts in, headers included, whichever loop reads the
// connection: the frame reader on simnet (bare or behind the sandbox, where
// an idle connection parks no task) and the task loops on live sockets.
func TestInstrumentsCountBytes(t *testing.T) {
	calls := []string{"hello", "a considerably longer argument than the first one", ""}
	var wantOut, wantIn uint64
	for i, arg := range calls {
		req, _ := json.Marshal(&request{ID: uint64(i + 1), Method: "echo", Args: []any{arg}})
		res, _ := json.Marshal(arg)
		resp, _ := json.Marshal(&response{ID: uint64(i + 1), Result: res})
		wantOut += uint64(llenc.HeaderSize + len(req))
		wantIn += uint64(llenc.HeaderSize + len(resp))
	}
	check := func(t *testing.T, cins, sins Instruments) {
		t.Helper()
		if out, in := cins.BytesOut.Total(), sins.BytesIn.Total(); out != wantOut || in != wantOut {
			t.Errorf("requests: client counted %d bytes out, server %d in; the frames are %d", out, in, wantOut)
		}
		if out, in := sins.BytesOut.Total(), cins.BytesIn.Total(); out != wantIn || in != wantIn {
			t.Errorf("responses: server counted %d bytes out, client %d in; the frames are %d", out, in, wantIn)
		}
	}
	echo := func(t *testing.T, c *Client, addr transport.Addr) {
		t.Helper()
		for _, arg := range calls {
			if res, err := c.CallTimeout(addr, 10*time.Second, "echo", arg); err != nil || string(res) != string(mustJSON(arg)) {
				t.Errorf("echo %q: %s, %v", arg, res, err)
			}
		}
	}

	for name, grant := range map[string]core.Grant{
		"sim":           {},
		"sim-sandboxed": {Net: sandbox.NetLimits{MaxSockets: 8, MaxRxBytes: 1 << 20}},
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 2)
			cins, sins := NewInstruments(metrics.NewRegistry()), NewInstruments(metrics.NewRegistry())
			sctx, cctx := e.ctx(1), e.ctx(0)
			sctx.Grant(grant)
			cctx.Grant(grant)
			e.k.Go(func() {
				s := NewServer(sctx)
				s.SetInstruments(sins)
				s.Register("echo", func(a Args) (any, error) { return a.String(0), nil })
				if err := s.Start(8000); err != nil {
					t.Error(err)
				}
			})
			e.k.GoAfter(time.Second, func() {
				c := NewClient(cctx)
				c.SetInstruments(cins)
				echo(t, c, transport.Addr{Host: "n1", Port: 8000})
			})
			e.k.Run()
			check(t, cins, sins)
			// Listener, served connection and pooled peer are all idle
			// and all still open: none of them holds a task.
			if sctx.Tracked() < 2 || cctx.Tracked() < 1 || e.k.Tasks() != 0 {
				t.Errorf("idle: server tracks %d, client %d, %d kernel tasks parked; want open sockets and no task",
					sctx.Tracked(), cctx.Tracked(), e.k.Tasks())
			}
		})
	}

	t.Run("live", func(t *testing.T) {
		rt := core.NewLiveRuntime(1)
		cins, sins := NewInstruments(metrics.NewRegistry()), NewInstruments(metrics.NewRegistry())
		sctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
		defer sctx.Kill()
		s := NewServer(sctx)
		s.SetInstruments(sins)
		s.Register("echo", func(a Args) (any, error) { return a.String(0), nil })
		if err := s.Start(0); err != nil {
			t.Fatal(err)
		}
		cctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
		defer cctx.Kill()
		c := NewClient(cctx)
		c.SetInstruments(cins)
		echo(t, c, transport.Addr{Host: "127.0.0.1", Port: s.Addr().Port})
		// The flusher publishes its batch's bytes after the write, which
		// the client may have answered already.
		for deadline := time.Now().Add(10 * time.Second); sins.BytesOut.Total() != wantIn && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		check(t, cins, sins)
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
