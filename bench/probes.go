package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/ctlproto"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/logging"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/topology"
	"github.com/splaykit/splay/internal/transport"
)

// Layer probes: each one times calls into one internal package's public
// functions in isolation, at a fixed iteration count, and reports a unit
// cost. They are the per-layer counterpart of the end-to-end workloads —
// README.md records which end-to-end metric each should move, and on
// which workload the prediction is "none".

// probe is one isolated measurement. run performs iters operations and
// returns how long they took (set-up excluded) and, for the probes that
// report allocations, the heap objects they allocated.
type probe struct {
	name  string
	unit  string // ns, us or ms per operation
	iters int
	run   func(iters int) (time.Duration, uint64, error)
	// allocs names a second metric: heap objects per operation.
	allocs string
}

const probeReps = 3 // each probe reports the median of this many runs

// runProbes runs every probe (at scale < 1, with proportionally fewer
// iterations) and returns metric name → value.
func runProbes(scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		iters := int(float64(p.iters) * scale)
		if iters < 1 {
			iters = 1
		}
		per := make([]float64, 0, probeReps)
		var allocs float64
		for r := 0; r < probeReps; r++ {
			d, mallocs, err := p.run(iters)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(d)/float64(iters))
			allocs = float64(mallocs) / float64(iters)
		}
		ns := median(per)
		switch p.unit {
		case "us":
			ns /= 1e3
		case "ms":
			ns /= 1e6
		}
		out[p.name] = ns
		if p.allocs != "" {
			out[p.allocs] = allocs
		}
	}
	live, err := probeLive(time.Duration(float64(time.Second) * scale))
	if err != nil {
		// Loopback sockets may be unavailable in a sandbox; the live probe
		// is informational, so report it absent rather than fail the run.
		fmt.Printf("# livenet probe skipped: %v\n", err)
		live = map[string]float64{"livenet.rpc_rtt_us_p50": 0, "livenet.rpc_calls_per_s": 0}
	}
	for k, v := range live {
		out[k] = v
	}
	return out, nil
}

// timed measures fn's wall time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

var probes = []probe{
	{name: "sim.event_ns", unit: "ns", iters: 2_000_000, run: probeEvents(time.Millisecond)},
	{name: "sim.timer_far_ns", unit: "ns", iters: 500_000, run: probeEvents(2 * time.Second)},
	{name: "sim.task_switch_ns", unit: "ns", iters: 100_000, run: probeTaskSwitch},
	{name: "sim.par_round_ns", unit: "ns", iters: 20_000, run: probeParRound},
	{name: "sim.par_post_ns", unit: "ns", iters: 20_000, run: probeParPost},
	{name: "simnet.msg_ns", unit: "ns", iters: 50_000, run: probeSimnetMsg(64, false)},
	{name: "simnet.msg_4k_ns", unit: "ns", iters: 20_000, run: probeSimnetMsg(4096, false)},
	{name: "simnet.msg_cross_ns", unit: "ns", iters: 10_000, run: probeSimnetMsg(64, true)},
	{name: "simnet.dial_ns", unit: "ns", iters: 10_000, run: probeSimnetDial},
	{name: "rpc.call_ns", unit: "ns", iters: 20_000, run: probeRPC(false), allocs: "rpc.call_allocs"},
	{name: "rpc.call_struct_ns", unit: "ns", iters: 10_000, run: probeRPC(true)},
	{name: "llenc.frame_ns", unit: "ns", iters: 200_000, run: probeLlenc},
	{name: "metrics.observe_ns", unit: "ns", iters: 2_000_000, run: probeMetricsObserve},
	{name: "metrics.delta_ns", unit: "ns", iters: 50_000, run: probeMetricsDelta},
	{name: "metrics.flush_ns", unit: "ns", iters: 10_000, run: probeMetricsFlush},
	{name: "logging.emit_ns", unit: "ns", iters: 100_000, run: probeLogging},
	{name: "ctlproto.encode_ns", unit: "ns", iters: 200_000, run: probeCtlEncode},
	{name: "ctlproto.decode_ns", unit: "ns", iters: 100_000, run: probeCtlDecode},
	{name: "controller.deploy_ms", unit: "ms", iters: 3, run: probeDeploy, allocs: "controller.deploy_allocs"},
	{name: "core.instance_start_us", unit: "us", iters: 20_000, run: probeInstanceStart},
	{name: "churn.expand_ms", unit: "ms", iters: 20, run: probeChurnExpand},
	{name: "topology.build_ms", unit: "ms", iters: 2, run: probeTopology},
	{name: "config.compile_us", unit: "us", iters: 2_000, run: probeConfigCompile},
	{name: "splay.marshal_us", unit: "us", iters: 5_000, run: probeMarshal},
	{name: "splay.unmarshal_us", unit: "us", iters: 5_000, run: probeUnmarshal},
}

// probeEvents chains timer events d apart: the kernel's pooled AfterFunc
// path. 2 s is past the timer wheel's horizon, so every event takes the
// overflow heap and cascades back.
func probeEvents(d time.Duration) func(int) (time.Duration, uint64, error) {
	return func(iters int) (time.Duration, uint64, error) {
		k := sim.NewKernel()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < iters {
				k.AfterFunc(d, tick)
			}
		}
		k.AfterFunc(d, tick)
		el, m := timed(func() { k.Run() })
		return el, m, nil
	}
}

// probeTaskSwitch parks and resumes one task: two goroutine hand-offs
// per iteration, the cost under every blocking call an application makes.
func probeTaskSwitch(iters int) (time.Duration, uint64, error) {
	k := sim.NewKernel()
	k.Go(func() {
		for i := 0; i < iters; i++ {
			k.Sleep(time.Microsecond)
		}
	})
	el, m := timed(func() { k.Run() })
	return el, m, nil
}

const probeLookahead = time.Millisecond

// probeParRound runs two partitions on two workers with one event per
// partition per lookahead window: the cost of a barrier round.
func probeParRound(iters int) (time.Duration, uint64, error) {
	pk := sim.NewParKernel(2, 2, probeLookahead)
	for p := 0; p < 2; p++ {
		k := pk.Sub(p)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < iters {
				k.AfterFunc(probeLookahead, tick)
			}
		}
		k.AfterFunc(probeLookahead, tick)
	}
	el, m := timed(func() { pk.Run() })
	return el, m, nil
}

// probeParPost bounces one event between two partitions through Post:
// the cost of a cross-partition hand-over including its barrier merge.
func probeParPost(iters int) (time.Duration, uint64, error) {
	pk := sim.NewParKernel(2, 2, probeLookahead)
	n := 0
	var hop func(at int) func()
	hop = func(at int) func() {
		return func() {
			n++
			if n < iters {
				to := 1 - at
				pk.Post(at, to, int64(pk.Sub(at).Since()+2*probeLookahead), hop(to))
			}
		}
	}
	pk.Sub(0).AfterFunc(0, hop(0))
	el, m := timed(func() { pk.Run() })
	return el, m, nil
}

// simPair wires two hosts on a simulated network: one kernel partition,
// or two (hosts 0 and 1 land on different partitions) when cross is set.
func simPair(cross bool) (*sim.ParKernel, *simnet.Network, error) {
	model := simnet.Symmetric{RTT: 2 * time.Millisecond}
	if !cross {
		pk := sim.NewParKernel(1, 1, 0)
		return pk, simnet.New(pk.Sub(0), model, 2, 1), nil
	}
	pk := sim.NewParKernel(2, 2, model.MinDelay())
	nw, err := simnet.NewPartitioned(pk, model, 2, 1)
	return pk, nw, err
}

// probeSimnetMsg streams iters messages of size bytes over one
// established connection from host 0 to host 1, reader and writer each a
// task on its host's partition: send, delivery event, reader wake-up.
func probeSimnetMsg(size int, cross bool) func(int) (time.Duration, uint64, error) {
	return func(iters int) (time.Duration, uint64, error) {
		pk, nw, err := simPair(cross)
		if err != nil {
			return 0, 0, err
		}
		var rerr, werr error // one per task: the two may run on different threads
		pk.Go(nw.Host(1).Part(), func() {
			ln, err := nw.Node(1).Listen(80)
			if err != nil {
				rerr = err
				return
			}
			c, err := ln.Accept()
			if err != nil {
				rerr = err
				return
			}
			buf := make([]byte, size)
			for got := 0; got < iters*size; {
				n, err := c.Read(buf)
				if err != nil {
					rerr = err
					return
				}
				got += n
			}
		})
		pk.GoAfter(nw.Host(0).Part(), 10*time.Millisecond, func() {
			c, err := nw.Node(0).Dial(transport.Addr{Host: simnet.HostName(1), Port: 80}, time.Second)
			if err != nil {
				werr = err
				return
			}
			msg := make([]byte, size)
			k := pk.Sub(nw.Host(0).Part())
			for i := 0; i < iters; i++ {
				if _, err := c.Write(msg); err != nil {
					werr = err
					return
				}
				// One message in flight per link delay: each is its own
				// delivery event rather than one coalesced burst.
				k.Sleep(2 * time.Millisecond)
			}
		})
		el, m := timed(func() { pk.Run() })
		if rerr != nil {
			return 0, 0, rerr
		}
		return el, m, werr
	}
}

// probeSimnetDial opens and closes a connection per iteration: the
// handshake the churn workload pays toward every fresh or departed peer.
func probeSimnetDial(iters int) (time.Duration, uint64, error) {
	pk, nw, err := simPair(false)
	if err != nil {
		return 0, 0, err
	}
	k := pk.Sub(0)
	var perr error
	k.Go(func() {
		ln, err := nw.Node(1).Listen(80)
		if err != nil {
			perr = err
			return
		}
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	})
	k.GoAfter(time.Millisecond, func() {
		for i := 0; i < iters; i++ {
			c, err := nw.Node(0).Dial(transport.Addr{Host: simnet.HostName(1), Port: 80}, time.Second)
			if err != nil {
				perr = err
				return
			}
			c.Close()
		}
		k.Halt()
	})
	el, m := timed(func() { pk.Run() })
	return el, m, perr
}

// probeRef is the Chord-shaped struct argument and result.
type probeRef struct {
	ID   uint64         `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// probeRPC issues iters calls on one pooled connection: envelope encode,
// simnet delivery, decode, dispatch, result encode, response decode.
// The struct shape sends and decodes a node reference, the
// find_successor pattern; the plain shape echoes a string.
func probeRPC(structs bool) func(int) (time.Duration, uint64, error) {
	return func(iters int) (time.Duration, uint64, error) {
		k := sim.NewKernel()
		nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
		rt := core.NewSimRuntime(k, 1)
		addr := transport.Addr{Host: simnet.HostName(1), Port: 8000}
		sctx := core.NewAppContext(rt, nw.Node(1), core.JobInfo{Me: addr}, nil)
		var perr error
		k.Go(func() {
			s := rpc.NewServer(sctx)
			s.Register("echo", func(a rpc.Args) (any, error) { return a.String(0), nil })
			s.Register("ref", func(a rpc.Args) (any, error) {
				var r probeRef
				if err := a.Decode(0, &r); err != nil {
					return nil, err
				}
				return r, nil
			})
			perr = s.Start(addr.Port)
		})
		c := rpc.NewClient(core.NewAppContext(rt, nw.Node(0), core.JobInfo{}, nil))
		arg := probeRef{ID: 12345, Addr: addr}
		call := func() error {
			if !structs {
				_, err := c.Call(addr, "echo", "payload-string")
				return err
			}
			res, err := c.Call(addr, "ref", arg)
			if err != nil {
				return err
			}
			var back probeRef
			return res.Decode(&back)
		}
		k.Go(func() { perr = call() }) // warm the pooled connection
		k.Run()
		if perr != nil {
			return 0, 0, perr
		}
		k.Go(func() {
			for i := 0; i < iters && perr == nil; i++ {
				perr = call()
			}
		})
		el, m := timed(func() { k.Run() })
		return el, m, perr
	}
}

// probeLlenc frames and unframes a 256-byte payload.
func probeLlenc(iters int) (time.Duration, uint64, error) {
	var pipe loopBuffer
	w, r := llenc.NewWriter(&pipe), llenc.NewReader(&pipe)
	payload := make([]byte, 256)
	var err error
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			if err = w.WriteMessage(payload); err == nil {
				_, err = r.ReadMessage()
			}
		}
	})
	return el, m, err
}

// loopBuffer is a FIFO byte buffer that reuses its storage.
type loopBuffer struct {
	buf []byte
	off int
}

func (b *loopBuffer) Write(p []byte) (int, error) {
	if b.off == len(b.buf) {
		b.buf, b.off = b.buf[:0], 0
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *loopBuffer) Read(p []byte) (int, error) {
	if b.off == len(b.buf) {
		return 0, io.EOF
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// probeMetricsObserve is the instrument hot path: a counter increment
// plus a histogram observation.
func probeMetricsObserve(iters int) (time.Duration, uint64, error) {
	reg := metrics.NewRegistry()
	c := reg.Counter("probe.calls")
	h := reg.Histogram("probe.latency", metrics.KindHistPow2)
	el, m := timed(func() {
		for i := 0; i < iters; i++ {
			c.Inc()
			h.Observe(int64(i))
		}
	})
	return el, m, nil
}

// discardNode is a transport.Node whose connections swallow writes: a
// reporter dialed through it pays for building and encoding its delta
// report and nothing else.
type discardNode struct{}

type discardConn struct{}

func (discardNode) Host() string                                   { return "discard" }
func (discardNode) Listen(int) (transport.Listener, error)         { return nil, transport.ErrRefused }
func (discardNode) ListenPacket(int) (transport.PacketConn, error) { return nil, transport.ErrRefused }
func (discardNode) Dial(transport.Addr, time.Duration) (transport.Conn, error) {
	return discardConn{}, nil
}
func (discardConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error)     { return len(p), nil }
func (discardConn) Close() error                    { return nil }
func (discardConn) LocalAddr() transport.Addr       { return transport.Addr{} }
func (discardConn) RemoteAddr() transport.Addr      { return transport.Addr{} }
func (discardConn) SetReadDeadline(time.Time) error { return nil }

// probeRegistry is a typical instance's instrument population: a handful
// of counters and one latency histogram.
func probeRegistry() (*metrics.Registry, []*metrics.Counter, *metrics.Histogram) {
	reg := metrics.NewRegistry()
	counters := make([]*metrics.Counter, 8)
	for i := range counters {
		counters[i] = reg.Counter("probe.c" + string(rune('a'+i)))
	}
	return reg, counters, reg.Histogram("probe.lat", metrics.KindHistPow2)
}

// probeMetricsDelta builds and encodes one delta report per iteration.
func probeMetricsDelta(iters int) (time.Duration, uint64, error) {
	reg, counters, h := probeRegistry()
	rep, err := metrics.DialReporter(discardNode{}, transport.Addr{}, reg, metrics.ReporterConfig{Key: "k", Node: "n1"})
	if err != nil {
		return 0, 0, err
	}
	if err := rep.Flush(); err != nil { // ship the definitions once
		return 0, 0, err
	}
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			counters[i%len(counters)].Inc()
			h.Observe(int64(i))
			err = rep.Flush()
		}
	})
	return el, m, err
}

// probeMetricsFlush ships one delta report per iteration over the
// simulated network into a real aggregator: build, encode, deliver,
// decode, absorb.
func probeMetricsFlush(iters int) (time.Duration, uint64, error) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 2, 1)
	reg, counters, h := probeRegistry()
	var agg *metrics.Aggregator
	var perr error
	k.Go(func() {
		if agg, perr = metrics.NewAggregator(nw.Node(1), 7000, k.Go); perr == nil {
			agg.Authorize("k")
		}
	})
	k.Run()
	if perr != nil {
		return 0, 0, perr
	}
	k.Go(func() {
		rep, err := metrics.DialReporter(nw.Node(0), transport.Addr{Host: simnet.HostName(1), Port: 7000}, reg,
			metrics.ReporterConfig{Key: "k", Node: "n0"})
		if err != nil {
			perr = err
			return
		}
		for i := 0; i < iters && perr == nil; i++ {
			counters[i%len(counters)].Inc()
			h.Observe(int64(i))
			perr = rep.Flush()
			k.Sleep(5 * time.Millisecond)
		}
		k.Halt()
	})
	el, m := timed(func() { k.Run() })
	if perr == nil && agg.CounterTotal("probe.ca") == 0 {
		perr = fmt.Errorf("aggregator absorbed nothing")
	}
	return el, m, perr
}

// probeLogging formats and emits one record per iteration to a
// discarding writer.
func probeLogging(iters int) (time.Duration, uint64, error) {
	lg := logging.New(&logging.WriterSink{W: io.Discard}, "n1", "key", nil)
	el, m := timed(func() {
		for i := 0; i < iters; i++ {
			lg.Printf("lookup %d -> %s in %d hops", i, "n7:9000", 5)
		}
	})
	return el, m, nil
}

// probeCtlMsg is the control frame a hosted job's REGISTER carries: a
// job with parameters and its bootstrap list. Frames with parameters are
// the ones the hand-rolled ctlproto codec declines, so this measures
// what platform_jobs pays — the fast attempt plus the encoding/json
// fallback — through the same llenc entry points the controller uses.
func probeCtlMsg() *ctlproto.Msg {
	nodes := make([]transport.Addr, 8)
	for i := range nodes {
		nodes[i] = transport.Addr{Host: simnet.HostName(i + 1), Port: 20000 + i}
	}
	return &ctlproto.Msg{Seq: 42, Type: "list", Job: &ctlproto.Job{
		ID: "job-17", App: "cyclon", Params: json.RawMessage(`{"view_size":16,"report":true}`),
		Position: 3, Nodes: nodes,
	}}
}

func probeCtlEncode(iters int) (time.Duration, uint64, error) {
	msg := probeCtlMsg()
	w := llenc.NewWriter(io.Discard)
	var err error
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			err = w.Encode(msg)
		}
	})
	return el, m, err
}

func probeCtlDecode(iters int) (time.Duration, uint64, error) {
	var frame loopBuffer
	if err := llenc.NewWriter(&frame).Encode(probeCtlMsg()); err != nil {
		return 0, 0, err
	}
	var pipe loopBuffer
	r := llenc.NewReader(&pipe)
	var err error
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			var out ctlproto.Msg
			pipe.Write(frame.buf) //nolint:errcheck // cannot fail
			err = r.Decode(&out)
		}
	})
	return el, m, err
}

// probeDeploy is one full deployment round against 1,000 simulated
// daemons — REGISTER superset, LIST, START of a 200-instance job — and
// its teardown, with an application that exits at once: the controller's
// own selection, fan-out and frame costs.
func probeDeploy(iters int) (time.Duration, uint64, error) {
	const daemons, nodes = 1000, 200
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond}, daemons+1, 1)
	rt := core.NewSimRuntime(k, 1)
	reg := core.NewRegistry()
	reg.MustRegister("noop", func(json.RawMessage) (core.App, error) {
		return core.AppFunc(func(*core.AppContext) error { return nil }), nil
	})
	ctl := controller.New(rt, nw.Node(0), controller.DefaultConfig())
	var perr error
	k.Go(func() { perr = ctl.Start() })
	ctlAddr := transport.Addr{Host: simnet.HostName(0), Port: controller.DefaultConfig().Port}
	for i := 1; i <= daemons; i++ {
		d := daemon.New(rt, nw.Node(i), reg, daemon.DefaultConfig(simnet.HostName(i)), nil)
		k.GoAfter(time.Duration(i)*time.Millisecond, func() { d.Connect(ctlAddr) }) //nolint:errcheck // counted below
	}
	k.RunFor(65 * time.Second) // one full ping period: selection has RTTs
	if perr != nil {
		return 0, 0, perr
	}
	if got := ctl.Daemons(); got != daemons {
		return 0, 0, fmt.Errorf("%d of %d daemons connected", got, daemons)
	}
	el, m := timed(func() {
		for i := 0; i < iters && perr == nil; i++ {
			var job *controller.JobStatus
			k.Go(func() { job, perr = ctl.Submit(controller.JobSpec{App: "noop", Nodes: nodes}) })
			k.RunFor(30 * time.Second)
			if perr != nil {
				return
			}
			if job == nil || job.State != controller.JobRunning {
				perr = fmt.Errorf("deployment did not reach running")
				return
			}
			k.Go(func() { perr = ctl.StopJob(job.ID) })
			k.RunFor(30 * time.Second)
		}
	})
	return el, m, perr
}

// probeInstanceStart starts and kills one instance of an application
// that parks until killed: context, task spawn, kill fan-out.
func probeInstanceStart(iters int) (time.Duration, uint64, error) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 2 * time.Millisecond}, 1, 1)
	rt := core.NewSimRuntime(k, 1)
	app := core.AppFunc(func(ctx *core.AppContext) error {
		ctx.Periodic(time.Second, func() {})
		for !ctx.Killed() {
			ctx.Sleep(time.Second)
		}
		return nil
	})
	k.Go(func() {
		for i := 0; i < iters; i++ {
			inst := core.StartInstance(rt, nw.Node(0), core.JobInfo{Position: 1}, nil, app)
			k.Sleep(1500 * time.Millisecond)
			inst.Kill()
		}
	})
	el, m := timed(func() { k.Run() })
	return el, m, nil
}

// probeChurnExpand parses and expands the cyclon_churn script at scale 1
// into its trace.
func probeChurnExpand(iters int) (time.Duration, uint64, error) {
	src := cyclonScript(cyclonNodes, 4*time.Minute)
	var err error
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			var s *churn.Script
			if s, err = churn.ParseScript(src); err == nil {
				if len(churn.FromScript(s, int64(i))) == 0 {
					err = fmt.Errorf("empty trace")
				}
			}
		}
	})
	return el, m, err
}

// probeTopology builds the chord workloads' ModelNet: transit-stub graph
// plus all-pairs shortest paths.
func probeTopology(iters int) (time.Duration, uint64, error) {
	var hosts int
	el, m := timed(func() {
		for i := 0; i < iters; i++ {
			hosts = topology.NewModelNet(topology.DefaultModelNet(chordHosts + 1)).NumHosts()
		}
	})
	if hosts != chordHosts+1 {
		return 0, 0, fmt.Errorf("topology has %d hosts", hosts)
	}
	return el, m, nil
}

// The three document probes call the config and serialization planes
// directly on the platform_jobs workload's own document.

func probeConfigCompile(iters int) (time.Duration, uint64, error) {
	doc := platformDoc(1, 0)
	var err error
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			_, err = splay.CompileConfig(doc)
		}
	})
	return el, m, err
}

func probeUnmarshal(iters int) (time.Duration, uint64, error) {
	wire, err := splay.CompileConfig(platformDoc(1, 0))
	if err != nil {
		return 0, 0, err
	}
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			_, err = splay.UnmarshalScenario(wire)
		}
	})
	return el, m, err
}

func probeMarshal(iters int) (time.Duration, uint64, error) {
	sc, err := splay.LoadScenario(platformDoc(1, 0))
	if err != nil {
		return 0, 0, err
	}
	el, m := timed(func() {
		for i := 0; i < iters && err == nil; i++ {
			_, err = sc.Marshal()
		}
	})
	return el, m, err
}

// liveEcho is the live probe's application: position 1 serves an echo,
// position 2 calls it in a closed loop for the probe's duration. It runs
// under the live runtime, where an instance's tasks share one execution
// baton: a task that blocks in anything but the Env (a wait group, a
// bare channel) holds the baton and starves the instance's RPC reader.
// So the caller waits with env.Sleep, and the driver outside polls an
// atomic flag.
type liveEcho struct {
	window time.Duration
	rtts   []time.Duration // written by the caller before done flips
	err    error
	done   atomic.Bool
}

func (l *liveEcho) Run(env *splay.Env) error {
	if env.Job().Position == 1 {
		srv, err := env.NewRPCServer()
		if err != nil {
			return err
		}
		srv.Register("echo", func(a rpc.Args) (any, error) { return a.String(0), nil })
		if err := srv.Start(env.Job().Me.Port); err != nil {
			return err
		}
		env.RunUntilKilled()
		return nil
	}
	defer l.done.Store(true)
	cl, err := env.NewRPCClient()
	if err != nil {
		l.err = err
		return err
	}
	if len(env.Job().Nodes) == 0 {
		l.err = fmt.Errorf("no rendez-vous node")
		return l.err
	}
	server := env.Job().Nodes[0]
	// The server instance may still be binding: retry the first call.
	for i := 0; ; i++ {
		if _, l.err = cl.CallTimeout(server, time.Second, "echo", "warm"); l.err == nil {
			break
		}
		if i == 50 {
			return l.err
		}
		env.Sleep(20 * time.Millisecond)
	}
	for end := time.Now().Add(l.window); time.Now().Before(end); {
		t := time.Now()
		if _, l.err = cl.CallTimeout(server, time.Second, "echo", "payload-string"); l.err != nil {
			return l.err
		}
		l.rtts = append(l.rtts, time.Since(t))
	}
	return nil
}

// probeLive measures RPC round trips on real loopback sockets through
// splay.Live(3): one caller, closed loop. Informational — loopback
// latency varied ±12 % run to run on the reference box, which is why
// live is a probe and not a gated workload.
func probeLive(window time.Duration) (map[string]float64, error) {
	app := &liveEcho{window: window}
	sc := splay.Scenario{
		Name:    "bench-live",
		Seed:    1,
		Testbed: splay.Live(3),
		Apps:    []splay.AppSpec{{Name: "benchecho", Nodes: 2, App: app}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		return nil, err
	}
	defer sess.Stop()
	job, err := sess.Deploy(sc.Apps[0]).Wait()
	if err != nil {
		return nil, err
	}
	if job.State != splay.JobRunning {
		return nil, fmt.Errorf("live job is %s: %s", job.State, job.Err)
	}
	for deadline := time.Now().Add(window + 10*time.Second); !app.done.Load(); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("live caller did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sess.StopJob(job.ID); err != nil {
		return nil, err
	}
	if app.err != nil {
		return nil, app.err
	}
	if len(app.rtts) == 0 {
		return nil, fmt.Errorf("live caller completed no call")
	}
	us := make([]float64, len(app.rtts))
	var total time.Duration
	for i, d := range app.rtts {
		us[i] = float64(d) / float64(time.Microsecond)
		total += d
	}
	sort.Float64s(us)
	return map[string]float64{
		"livenet.rpc_rtt_us_p50":  percentile(us, 50),
		"livenet.rpc_calls_per_s": float64(len(app.rtts)) / total.Seconds(),
	}, nil
}
