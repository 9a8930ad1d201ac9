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
	// Key authenticates the stream to the aggregator (daemon-issued,
	// like the log collector's identification keys).
	Key string
	// Node names this node in aggregated views.
	Node string
	// DialTimeout bounds the connection attempt (0 = one minute).
	DialTimeout time.Duration
}

// Reporter streams a registry's delta reports to an aggregator. It is
// owned by one task: the caller schedules Flush on whatever period the
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
	cfg  ReporterConfig
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
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Minute
	}
	conn, err := node.Dial(addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("metrics: dial aggregator: %w", err)
	}
	r := &Reporter{reg: reg, node: node, addr: addr, cfg: cfg, conn: conn}
	r.rep.Key = cfg.Key
	r.rep.Node = cfg.Node
	r.enc.Reset(conn)
	return r, nil
}

// Flush sends one delta report covering everything that changed since
// the last *successful* flush. Nothing changed means nothing sent; a
// failed send keeps the deltas, so they ride the next flush instead of
// vanishing (at-least-once across a Reconnect — the frame is a single
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
	conn, err := r.node.Dial(r.addr, r.cfg.DialTimeout)
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
