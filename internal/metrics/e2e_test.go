package metrics_test

import (
	"errors"
	"math/bits"
	"slices"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// newSimPair builds an aggregator on host 0 and returns a dialer for
// reporters on other hosts, all on one kernel.
func newSimPair(t *testing.T, k *sim.Kernel, nhosts int) (*simnet.Network, *metrics.Aggregator) {
	t.Helper()
	nw := simnet.New(k, simnet.Symmetric{RTT: 10 * time.Millisecond}, nhosts, 1)
	var agg *metrics.Aggregator
	k.Go(func() {
		var err error
		agg, err = metrics.NewAggregator(nw.Node(0), 7999, k.Go)
		if err != nil {
			t.Errorf("aggregator: %v", err)
			return
		}
		agg.Authorize("obs")
	})
	k.Run()
	return nw, agg
}

func TestReporterAggregatorEndToEnd(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 3)

	var sentBytes uint64 // what the reporters' framing writers tallied
	for i := 1; i <= 2; i++ {
		host := i
		k.Go(func() {
			reg := metrics.NewRegistry()
			c := reg.Counter("lookups")
			h := reg.Histogram("hops", metrics.KindHistLinear)
			rep, err := metrics.DialReporter(nw.Node(host), agg.Addr(), reg,
				metrics.ReporterConfig{Key: "obs", Node: simnet.HostName(host)})
			if err != nil {
				t.Errorf("reporter %d: %v", host, err)
				return
			}
			for j := 0; j < 5; j++ {
				c.Inc()
				h.Observe(int64(host)) // host 1 observes 1s, host 2 observes 2s
				if err := rep.Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
				k.Sleep(time.Second)
			}
			frames, bytes := rep.Sent()
			if frames != 5 || bytes == 0 {
				t.Errorf("reporter %d sent %d frames %d bytes", host, frames, bytes)
			}
			sentBytes += bytes
		})
	}
	k.Run()

	if agg.Nodes() != 2 {
		t.Fatalf("aggregator saw %d nodes, want 2", agg.Nodes())
	}
	if got := agg.CounterTotal("lookups"); got != 10 {
		t.Fatalf("merged lookups %d, want 10", got)
	}
	count, sum := agg.HistStats("hops")
	if count != 10 || sum != 15 {
		t.Fatalf("merged hops count=%d sum=%d, want 10/15", count, sum)
	}
	sorted := agg.HistSorted("hops")
	if p50 := sorted.Percentile(50); p50 != 1 {
		t.Fatalf("hops p50 = %d, want 1", p50)
	}
	if p99 := sorted.Percentile(99); p99 != 2 {
		t.Fatalf("hops p99 = %d, want 2", p99)
	}
	frames, bytes := agg.Received()
	if frames != 10 || bytes == 0 {
		t.Fatalf("aggregator received %d frames %d bytes", frames, bytes)
	}
	// Both ends read the count off the frames (llenc's tallies, headers
	// included), so every byte sent is a byte received.
	if bytes != sentBytes {
		t.Fatalf("aggregator received %d bytes, reporters sent %d", bytes, sentBytes)
	}

	snaps := agg.Snapshot()
	if len(snaps) != 2 || snaps[0].Name != "lookups" || snaps[1].Name != "hops" {
		t.Fatalf("snapshot %+v", snaps)
	}
	if snaps[0].Total != 10 || snaps[1].Count != 10 || snaps[1].P50 != 1 {
		t.Fatalf("snapshot values %+v", snaps)
	}
}

func TestAggregatorRejectsUnknownKey(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	k.Go(func() {
		reg := metrics.NewRegistry()
		reg.Counter("x").Inc()
		rep, err := metrics.DialReporter(nw.Node(1), agg.Addr(), reg,
			metrics.ReporterConfig{Key: "forged", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rep.Flush() //nolint:errcheck
		reg.Counter("x").Inc()
		rep.Flush() //nolint:errcheck
	})
	k.Run()
	if agg.Nodes() != 0 {
		t.Fatal("unauthenticated stream absorbed")
	}
	if f, _ := agg.Received(); f != 0 {
		t.Fatalf("frames accepted: %d", f)
	}
}

func TestAggregatorRejectsKindConflict(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 3)
	k.Go(func() {
		reg := metrics.NewRegistry()
		reg.Counter("m").Inc()
		rep, err := metrics.DialReporter(nw.Node(1), agg.Addr(), reg, metrics.ReporterConfig{Key: "obs", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rep.Flush() //nolint:errcheck
	})
	k.Run()
	k.Go(func() {
		reg := metrics.NewRegistry()
		reg.Gauge("m").Set(3) // same name, different kind
		rep, err := metrics.DialReporter(nw.Node(2), agg.Addr(), reg, metrics.ReporterConfig{Key: "obs", Node: "n2"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rep.Flush() //nolint:errcheck
	})
	k.Run()
	if got := agg.CounterTotal("m"); got != 1 {
		t.Fatalf("counter total %d, want 1", got)
	}
	if agg.GaugeSum("m") != 0 {
		t.Fatal("conflicting gauge merged")
	}
}

func TestAggregatorSurvivesReporterRestart(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	run := func() {
		reg := metrics.NewRegistry() // fresh instruments: a restarted node
		reg.Counter("restarts").Add(3)
		rep, err := metrics.DialReporter(nw.Node(1), agg.Addr(), reg, metrics.ReporterConfig{Key: "obs", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rep.Flush() //nolint:errcheck
		rep.Close()
	}
	k.Go(run)
	k.Run()
	k.Go(run)
	k.Run()
	// Counter deltas accumulate across the restart; the node count does not.
	if got := agg.CounterTotal("restarts"); got != 6 {
		t.Fatalf("total %d, want 6", got)
	}
	if agg.Nodes() != 1 {
		t.Fatalf("nodes %d, want 1", agg.Nodes())
	}
}

func TestReporterSkipsIdleFlushes(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	k.Go(func() {
		reg := metrics.NewRegistry()
		c := reg.Counter("x")
		rep, err := metrics.DialReporter(nw.Node(1), agg.Addr(), reg, metrics.ReporterConfig{Key: "obs", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Inc()
		rep.Flush() //nolint:errcheck
		for i := 0; i < 10; i++ {
			rep.Flush() //nolint:errcheck — idle: nothing changed
		}
		if frames, _ := rep.Sent(); frames != 1 {
			t.Errorf("idle flushes sent %d frames, want 1", frames)
		}
	})
	k.Run()
	if f, _ := agg.Received(); f != 1 {
		t.Fatalf("aggregator received %d frames, want 1", f)
	}
}

// TestReporterReconnectResumes bounces the reporter's host mid-stream:
// after Reconnect the stream resumes with increments (deltas built
// during the outage included), never re-shipping lifetime totals —
// the aggregator's view stays exact.
func TestReporterReconnectResumes(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	var rep *metrics.Reporter
	k.Go(func() {
		reg := metrics.NewRegistry()
		c := reg.Counter("x")
		var err error
		rep, err = metrics.DialReporter(nw.Node(1), agg.Addr(), reg,
			metrics.ReporterConfig{Key: "obs", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Add(3)
		if err := rep.Flush(); err != nil {
			t.Errorf("first flush: %v", err)
		}
		// Let the frame land before the crash: data still in flight when
		// a host dies is lost with it, like any real crash.
		k.Sleep(time.Second)
		// Crash the reporter's host: its stream resets while the
		// instruments keep counting.
		nw.Host(1).SetDown(true)
		c.Add(2)
		if err := rep.Flush(); err == nil {
			t.Error("flush on a dead host did not fail")
		}
		nw.Host(1).SetDown(false)
		if err := rep.Reconnect(); err != nil {
			t.Errorf("reconnect: %v", err)
			return
		}
		c.Add(1)
		if err := rep.Flush(); err != nil {
			t.Errorf("post-reconnect flush: %v", err)
		}
	})
	k.Run()
	// 3 before the crash + (2 + 1) after: no loss, no double count.
	if got := agg.CounterTotal("x"); got != 6 {
		t.Fatalf("merged total %d, want 6", got)
	}
	if agg.Nodes() != 1 {
		t.Fatalf("nodes %d, want 1", agg.Nodes())
	}
	// Sent spans the reconnect (one tally across both streams); the flush
	// the dead host refused put nothing on the wire.
	sf, sb := rep.Sent()
	rf, rb := agg.Received()
	if sf != 2 || rf != 2 || sb == 0 || sb != rb {
		t.Fatalf("sent %d frames %d bytes, received %d frames %d bytes; want 2 frames and equal bytes", sf, sb, rf, rb)
	}
}

// failFirstNode's first dial hands out a conn whose writes fail; every
// later dial goes through the real node.
type failFirstNode struct {
	real  transport.Node
	dials int
}

func (n *failFirstNode) Host() string                             { return n.real.Host() }
func (n *failFirstNode) Listen(p int) (transport.Listener, error) { return n.real.Listen(p) }
func (n *failFirstNode) ListenPacket(int) (transport.PacketConn, error) {
	return nil, transport.ErrRefused
}
func (n *failFirstNode) Dial(to transport.Addr, d time.Duration) (transport.Conn, error) {
	if n.dials++; n.dials == 1 {
		return brokenConn{}, nil
	}
	return n.real.Dial(to, d)
}

// brokenConn refuses every write.
type brokenConn struct{}

var errBroken = errors.New("broken conn")

func (brokenConn) Read([]byte) (int, error)        { return 0, errBroken }
func (brokenConn) Write([]byte) (int, error)       { return 0, errBroken }
func (brokenConn) Close() error                    { return nil }
func (brokenConn) LocalAddr() transport.Addr       { return transport.Addr{} }
func (brokenConn) RemoteAddr() transport.Addr      { return transport.Addr{} }
func (brokenConn) SetReadDeadline(time.Time) error { return nil }

// TestFailedSendKeepsHistogramDeltas: a flush whose write fails hands
// its drained buckets back, so after a reconnect the aggregator merges
// every observation exactly once — count, sum and buckets — and the
// histogram's own Count and Sum stay lifetime totals.
func TestFailedSendKeepsHistogramDeltas(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	before := []int64{1, 5, 5, 40, 1000}
	after := []int64{5, 7, 1000, 1 << 20}
	var h *metrics.Histogram
	k.Go(func() {
		reg := metrics.NewRegistry()
		h = reg.Histogram("lat", metrics.KindHistPow2)
		rep, err := metrics.DialReporter(&failFirstNode{real: nw.Node(1)}, agg.Addr(), reg,
			metrics.ReporterConfig{Key: "obs", Node: "n1"})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for _, v := range before {
			h.Observe(v)
		}
		if err := rep.Flush(); !errors.Is(err, errBroken) {
			t.Errorf("flush on a broken conn: %v", err)
		}
		if err := rep.Reconnect(); err != nil {
			t.Errorf("reconnect: %v", err)
			return
		}
		for _, v := range after {
			h.Observe(v)
		}
		for i := 0; i < 2; i++ { // the second flush has nothing to send
			if err := rep.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
		}
	})
	k.Run()

	all := append(before, after...)
	var sum int64
	want := make([]time.Duration, 0, len(all))
	for _, v := range all {
		sum += v
		want = append(want, time.Duration(metrics.BucketUpper(metrics.KindHistPow2, bits.Len64(uint64(v)))))
	}
	slices.Sort(want)
	if count, s := agg.HistStats("lat"); count != uint64(len(all)) || s != sum {
		t.Fatalf("merged count=%d sum=%d, want %d/%d", count, s, len(all), sum)
	}
	if got := agg.HistSorted("lat"); !slices.Equal(got, want) {
		t.Fatalf("merged buckets %v, want %v", got, want)
	}
	if f, _ := agg.Received(); f != 1 {
		t.Fatalf("aggregator received %d frames, want 1", f)
	}
	if h.Count() != uint64(len(all)) || h.Sum() != sum {
		t.Fatalf("histogram Count=%d Sum=%d after reports, want lifetime %d/%d", h.Count(), h.Sum(), len(all), sum)
	}
}

// TestAggregatorRejectsDuplicateDefIDs sends a hand-built hostile frame
// whose defs reuse one id with conflicting kinds; the aggregator must
// refuse the whole frame rather than merge into the wrong series.
func TestAggregatorRejectsDuplicateDefIDs(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	nw, agg := newSimPair(t, k, 2)
	k.Go(func() {
		conn, err := nw.Node(1).Dial(agg.Addr(), time.Minute)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		enc := llenc.NewWriter(conn)
		err = enc.Encode(&metrics.Report{
			Key: "obs", Node: "n1", Seq: 1,
			Defs: []metrics.Def{
				{ID: 0, Name: "a", Kind: metrics.KindCounter},
				{ID: 0, Name: "b", Kind: metrics.KindGauge},
			},
			C: []metrics.Delta{{ID: 0, D: 5}},
		})
		if err != nil {
			t.Errorf("encode: %v", err)
		}
	})
	k.Run()
	if f, _ := agg.Received(); f != 0 {
		t.Fatalf("hostile frame accepted (%d frames)", f)
	}
	if agg.CounterTotal("a") != 0 || agg.GaugeSum("b") != 0 {
		t.Fatal("hostile deltas merged")
	}
}
