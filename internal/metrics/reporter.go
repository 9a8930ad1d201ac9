package metrics

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// ReporterConfig names the stream a Reporter opens.
type ReporterConfig struct {
	// Key authenticates the stream to the aggregator (daemon-issued).
	Key string
	// Node names this node in aggregated views.
	Node string
}

// dialTimeout bounds a connection attempt to the aggregator.
const dialTimeout = time.Minute

// Reporter streams a registry's delta reports to an aggregator. A
// registry has at most one reporter, since flushing drains its
// histograms' buckets. The reporter is owned by one task: the caller schedules Flush on whatever period the
// deployment can afford (ctx.Periodic in applications, a timer loop in
// splayd) and Flush/Close must not be called concurrently — exactly
// the llenc.Writer contract underneath. Sent is safe from any task.
//
// Reporting is the only part of the metrics plane that touches the
// network; everything the reporter sends is built from pooled state
// (the delta report and its slices are reused across flushes), so a
// quiet node costs one small frame per period and an idle one costs
// nothing (empty deltas are skipped).
type Reporter struct {
	reg  *Registry
	node transport.Node
	addr transport.Addr
	conn transport.Conn
	enc  llenc.Writer // its tally spans reconnects

	st  deltaState
	rep Report
	seq uint64

	frames atomic.Uint64
	bytes  atomic.Uint64
}

// DialReporter connects a registry to the aggregator at addr.
func DialReporter(node transport.Node, addr transport.Addr, reg *Registry, cfg ReporterConfig) (*Reporter, error) {
	if reg == nil {
		return nil, fmt.Errorf("metrics: nil registry")
	}
	conn, err := node.Dial(addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("metrics: dial aggregator: %w", err)
	}
	r := &Reporter{reg: reg, node: node, addr: addr, conn: conn}
	r.rep.Key = cfg.Key
	r.rep.Node = cfg.Node
	r.enc.Reset(conn)
	return r, nil
}

// Flush sends one delta report covering everything that changed since
// the last *successful* flush. Nothing changed means nothing sent; a
// failed send keeps the deltas (the drained histogram buckets are
// handed back), so they ride the next flush instead of vanishing (at-least-once across a Reconnect — the frame is a single
// write, so duplicates require it to have landed just as the stream
// died).
func (r *Reporter) Flush() error {
	if !appendDelta(r.reg, &r.st, &r.rep) {
		return nil
	}
	r.rep.Seq = r.seq + 1
	err := r.enc.Encode(&r.rep)
	r.bytes.Store(r.enc.Bytes())
	if err != nil {
		restoreDelta(r.reg, &r.rep)
		return fmt.Errorf("metrics: report: %w", err)
	}
	r.seq++
	commitDelta(&r.st, &r.rep)
	r.frames.Add(1)
	return nil
}

// Reconnect replaces a dead stream with a fresh connection while
// keeping the delta state, so a long-lived process resumes reporting
// increments instead of re-shipping (and double-counting) lifetime
// totals. The instrument dictionary is resent on the new stream —
// the aggregator's view of it is per-connection.
func (r *Reporter) Reconnect() error {
	r.conn.Close()
	conn, err := r.node.Dial(r.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("metrics: redial aggregator: %w", err)
	}
	r.conn = conn
	r.enc.Reset(conn)
	r.st.defsSent = 0
	return nil
}

// Sent reports the stream's cost so far: frames written and bytes on
// the wire (llenc headers included) — the monitoring-overhead measure
// obsplane reports, published from the framing writer's own tally.
func (r *Reporter) Sent() (frames, bytes uint64) {
	return r.frames.Load(), r.bytes.Load()
}

// Close closes the stream.
func (r *Reporter) Close() error { return r.conn.Close() }

// Stream is a process's one reporter loop: dial, one flush per period,
// close once wait says stop. wait sleeps d on the caller's clock (so a
// simulated stream keeps its schedule), is told the last dial or flush
// error, and reports whether to go on. A failed dial is retried next
// period and a failed flush reconnects, keeping the delta state, so a
// stream a crash or a partition broke resumes once its host is back.
func Stream(node transport.Node, addr transport.Addr, reg *Registry, cfg ReporterConfig,
	period time.Duration, wait func(d time.Duration, err error) bool) {
	rep, err := DialReporter(node, addr, reg, cfg)
	for wait(period, err) {
		if rep == nil {
			rep, err = DialReporter(node, addr, reg, cfg)
		} else if err = rep.Flush(); err != nil {
			err = rep.Reconnect()
		}
	}
	if rep != nil {
		rep.Close() //nolint:errcheck // nothing left to flush to
	}
}
