package rpc

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// benchCalls times b.N sequential calls on a pooled connection in the
// simulator, against a server with the benchmarks' handlers. Virtual time
// is free, so ns/op and allocs/op are purely the message plane's CPU and
// garbage cost. One warm-up call outside the timer dials the connection
// and fills every buffer pool.
func benchCalls(b *testing.B, call func(c *Client, addr transport.Addr) error) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	addr := transport.Addr{Host: "n1", Port: 8000}
	sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: addr}, nil)
	k.Go(func() {
		s := NewServer(sctx)
		s.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
		s.Register("sum", func(args Args) (any, error) { return args.Int(0) + args.Int(1), nil })
		s.Register("notify", func(args Args) (any, error) { return nil, nil })
		s.Register("next-fast", func(args Args) (any, error) {
			var r fastRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		s.Register("next-plain", func(args Args) (any, error) {
			var r plainRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		if err := s.Start(addr.Port); err != nil {
			b.Errorf("server: %v", err)
		}
	})
	c := NewClient(core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil))
	k.Go(func() {
		if err := call(c, addr); err != nil {
			b.Errorf("warmup: %v", err)
		}
	})
	k.Run()

	b.ResetTimer()
	k.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := call(c, addr); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	k.Run()
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
// struct — every protocol's node reference — decoded at both ends: once
// with a value codec on the type (the llenc contract) and once as its
// plain twin through encoding/json. The pair is the layer price of a
// typed message with and without a codec; CI records both in
// BENCH_rpc.json.
func BenchmarkRPCStructCall(b *testing.B) {
	ref := plainRef{ID: 12345, Addr: transport.Addr{Host: "n0", Port: 8000}}
	b.Run("contract", func(b *testing.B) {
		benchCalls(b, func(c *Client, addr transport.Addr) error {
			var out fastRef
			res, err := c.Call(addr, "next-fast", fastRef(ref))
			if err != nil {
				return err
			}
			return res.Decode(&out)
		})
	})
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
