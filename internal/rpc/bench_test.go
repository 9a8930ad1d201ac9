package rpc

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// benchAddr is where benchServer listens.
var benchAddr = transport.Addr{Host: "n1", Port: 8000}

// benchServer builds a two-host simulated network and starts a server
// with the benchmarks' handlers on n1; n0 is left for clients.
func benchServer(b *testing.B) (*sim.Kernel, *simnet.Network, *core.SimRuntime) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: benchAddr}, nil)
	k.Go(func() {
		s := NewServer(sctx)
		s.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
		s.Register("sum", func(args Args) (any, error) { return args.Int(0) + args.Int(1), nil })
		s.Register("notify", func(args Args) (any, error) { return nil, nil })
		s.Register("next-plain", func(args Args) (any, error) {
			var r plainRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		if err := s.Start(benchAddr.Port); err != nil {
			b.Errorf("server: %v", err)
		}
	})
	return k, nw, rt
}

// benchCalls times b.N sequential calls on a pooled connection in the
// simulator, against a server with the benchmarks' handlers. Virtual time
// is free, so ns/op and allocs/op are purely the message plane's CPU and
// garbage cost. One warm-up call outside the timer dials the connection
// and fills every buffer pool.
func benchCalls(b *testing.B, call func(c *Client, addr transport.Addr) error) {
	k, nw, rt := benchServer(b)
	c := NewClient(core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil))
	k.Go(func() {
		if err := call(c, benchAddr); err != nil {
			b.Errorf("warmup: %v", err)
		}
	})
	k.Run()

	b.ResetTimer()
	k.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := call(c, benchAddr); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	k.Run()
}

// BenchmarkRPCFreshCall prices the call gossip makes on almost every
// round: a fresh instance context and client dial the server, make one
// string echo and are killed, which closes both ends. Under churn a
// Cyclon node rarely calls the same peer twice (92 % of cyclon_churn's
// calls dial, 99.8 % of platform_jobs'), so this — not
// BenchmarkRPCThroughput's pooled call — is the common path there. Warm-up
// rounds fill the kernel's, the network's and the message plane's pools
// first; CI records it in BENCH_rpc.json and gates its allocs/op.
func BenchmarkRPCFreshCall(b *testing.B) {
	k, nw, rt := benchServer(b)
	fresh := func(n int) {
		k.Go(func() {
			for i := 0; i < n; i++ {
				ctx := core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil)
				if _, err := NewClient(ctx).Call(benchAddr, "echo", "payload-string"); err != nil {
					b.Errorf("call: %v", err)
					return
				}
				ctx.Kill()
			}
		})
		k.Run()
	}
	fresh(16)
	b.ReportAllocs()
	b.ResetTimer()
	fresh(b.N)
}

// BenchmarkRPCThroughput measures the steady-state cost of one complete
// string echo: client envelope encode, simnet delivery, server envelope
// decode, handler dispatch, result encode and client response decode —
// the number that bounds every experiment's wall clock once the kernel
// itself is allocation-free. CI records it as BENCH_rpc.json.
func BenchmarkRPCThroughput(b *testing.B) {
	benchCalls(b, func(c *Client, addr transport.Addr) error {
		_, err := c.Call(addr, "echo", "payload-string")
		return err
	})
}

// BenchmarkRPCStructCall is one call carrying and returning an {id, addr}
// struct — every protocol's node reference — decoded at both ends through
// its derived plan: the layer price of a typed message. CI records it in
// BENCH_rpc.json.
func BenchmarkRPCStructCall(b *testing.B) {
	ref := plainRef{ID: 12345, Addr: transport.Addr{Host: "n0", Port: 8000}}
	b.Run("plain", func(b *testing.B) {
		benchCalls(b, func(c *Client, addr transport.Addr) error {
			var out plainRef
			res, err := c.Call(addr, "next-plain", ref)
			if err != nil {
				return err
			}
			return res.Decode(&out)
		})
	})
}

// BenchmarkRPCCallShapes breaks the throughput number down by call
// shape: string echo, two-int sum, a struct arg with nil result (the
// Chord notify shape) and the same struct pre-encoded with rpc.Marshal.
func BenchmarkRPCCallShapes(b *testing.B) {
	ref := plainRef{ID: 12345, Addr: transport.Addr{Host: "n0", Port: 8000}}
	preEncoded, err := Marshal(ref)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		call func(c *Client, addr transport.Addr) error
	}{
		{"echo-string", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "echo", "payload-string")
			return err
		}},
		{"sum-ints", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "sum", 19, 23)
			return err
		}},
		{"notify-struct", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "notify", ref)
			return err
		}},
		{"notify-raw", func(c *Client, addr transport.Addr) error {
			_, err := c.Call(addr, "notify", preEncoded)
			return err
		}},
	} {
		b.Run(shape.name, func(b *testing.B) { benchCalls(b, shape.call) })
	}
}
