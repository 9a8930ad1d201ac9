package splay_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/rpc"
	"github.com/splaykit/splay/internal/transport"
)

// reportingNodeBudget is what one instrumented instance's metrics state
// may pin once it has reported: its registry with the chord and rpc
// instrument sets, every series touched, and the reporter that flushed
// them. It measures ≈ 4,260 bytes, 1,536 of them the three histograms'
// bucket blocks; it was ≈ 11,780 while every touched counter carried a
// 512-byte striped block and the reporter kept a 64-bucket copy of each
// histogram's last report.
const reportingNodeBudget = 4690

// discardNode is a transport.Node whose connections swallow writes: a
// reporter dialed through it holds what reporting costs the node and
// nothing of the network's.
type discardNode struct{}

type discardConn struct{}

func (discardNode) Host() string                                   { return "discard" }
func (discardNode) Listen(int) (transport.Listener, error)         { return nil, transport.ErrRefused }
func (discardNode) ListenPacket(int) (transport.PacketConn, error) { return nil, transport.ErrRefused }
func (discardNode) Dial(transport.Addr, time.Duration) (transport.Conn, error) {
	return discardConn{}, nil
}
func (discardConn) Read([]byte) (int, error)        { return 0, transport.ErrClosed }
func (discardConn) Write(p []byte) (int, error)     { return len(p), nil }
func (discardConn) Close() error                    { return nil }
func (discardConn) LocalAddr() transport.Addr       { return transport.Addr{} }
func (discardConn) RemoteAddr() transport.Addr      { return transport.Addr{} }
func (discardConn) SetReadDeadline(time.Time) error { return nil }

// reportingHeap builds n reporting nodes — a registry carrying the chord
// and rpc instrument sets, every counter and histogram touched, one
// flush through its reporter — and returns the post-GC heap they hold
// beyond what the process held before.
func reportingHeap(t *testing.T, n int) uint64 {
	t.Helper()
	before := memprof.LiveHeap()
	reps := make([]*metrics.Reporter, n)
	for i := range reps {
		reg := metrics.NewRegistry()
		ci, ri := chord.NewInstruments(reg), rpc.NewInstruments(reg)
		for _, c := range []*metrics.Counter{ci.Lookups, ci.FailedLookups, ci.Forwarded, ci.Retries,
			ri.Calls, ri.Errors, ri.Timeouts, ri.Redials, ri.BytesOut, ri.BytesIn, ri.Served} {
			c.Inc()
		}
		for v := int64(1); v < 1<<20; v <<= 4 {
			ci.Hops.Observe(v % 12)
			ci.Latency.Observe(v * 1000)
			ri.Latency.Observe(v * 1000)
		}
		rep, err := metrics.DialReporter(discardNode{}, transport.Addr{}, reg, metrics.ReporterConfig{Key: "k", Node: "n"})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	after := memprof.LiveHeap()
	runtime.KeepAlive(reps)
	return after - before
}

// TestReportingNodeBytes prices an instrumented, reporting instance's
// metrics state on the live heap: the heap growth from 200 to 1,800
// nodes, divided by the 1,600 nodes between them, so the process's own
// baseline cancels out. The budget is the measured figure plus 10 %.
// Not parallel: it reads the process-wide heap.
func TestReportingNodeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const small, large = 200, 1800
	hs, hl := reportingHeap(t, small), reportingHeap(t, large)
	per := (float64(hl) - float64(hs)) / (large - small)
	t.Logf("reporting node: %.0f B (budget %d); %d nodes hold %d B, %d hold %d B", per, reportingNodeBudget, small, hs, large, hl)
	if per > reportingNodeBudget {
		t.Errorf("a reporting node's metrics state pins %.0f B, budget %d", per, reportingNodeBudget)
	}
}
