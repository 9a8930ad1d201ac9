package rpc

import "github.com/splaykit/splay/internal/metrics"

// Instruments is the RPC library's optional metric set for the
// observability plane. The zero value (all nil) is the disabled
// configuration: every hook below degrades to a nil-receiver no-op, so
// uninstrumented clients and servers pay only dead branches.
// Instrument increments touch only memory — never the scheduler or any
// seeded randomness — so attaching instruments leaves simulation
// schedules bit-identical.
type Instruments struct {
	Calls    *metrics.Counter   // calls issued (pings included)
	Errors   *metrics.Counter   // calls that returned any error
	Timeouts *metrics.Counter   // the subset that timed out
	Redials  *metrics.Counter   // retries: dials replacing a broken pooled peer
	Latency  *metrics.Histogram // per-call wall time, pow2 ns buckets
	BytesOut *metrics.Counter   // frame bytes written, llenc headers included
	BytesIn  *metrics.Counter   // frame bytes received, llenc headers included
	Served   *metrics.Counter   // server-side requests dispatched
}

// NewInstruments registers the library's canonical series on reg ("rpc."
// prefix). A nil registry yields the zero (disabled) set.
func NewInstruments(reg *metrics.Registry) Instruments {
	return Instruments{
		Calls:    reg.Counter("rpc.calls"),
		Errors:   reg.Counter("rpc.errors"),
		Timeouts: reg.Counter("rpc.timeouts"),
		Redials:  reg.Counter("rpc.redials"),
		Latency:  reg.Histogram("rpc.latency_ns", metrics.KindHistPow2),
		BytesOut: reg.Counter("rpc.bytes_out"),
		BytesIn:  reg.Counter("rpc.bytes_in"),
		Served:   reg.Counter("rpc.served"),
	}
}

// noInstruments is the shared disabled set. Clients and servers point at
// it until SetInstruments is called, so the uninstrumented common case
// costs one pointer per endpoint instead of an inline 64-byte struct and
// no access needs a nil guard. It is never written to.
var noInstruments Instruments

// SetInstruments attaches instruments to the client. Call it before
// issuing calls.
func (c *Client) SetInstruments(ins Instruments) { c.ins = &ins }

// SetInstruments attaches instruments to the server. Call it before
// Start.
func (s *Server) SetInstruments(ins Instruments) { s.ins = &ins }
