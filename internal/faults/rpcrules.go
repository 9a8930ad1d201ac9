package faults

import (
	"sync"
	"time"

	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

// RPCRule matches outgoing RPC requests by method name and either drops
// them (the call fails by timeout, like a lost request) or delays them.
type RPCRule struct {
	Method string // "" matches every method
	Drop   float64
	Delay  time.Duration
}

// RPCRules is the message-plane fault filter shared by every instance a
// scenario deploys: the live counterpart of simnet's link hooks, and an
// extra knob in simulation. A scenario wires each instance's RPC client
// to Check; with no rules installed Check is a mutex acquire and a nil
// slice scan, and clients without a filter never call it at all. The
// zero value is an empty filter.
type RPCRules struct {
	mu    sync.Mutex
	rules []RPCRule
}

// Set replaces the rules (nil removes all); the caller must not modify rules afterwards.
func (r *RPCRules) Set(rules []RPCRule) {
	r.mu.Lock()
	r.rules = rules
	r.mu.Unlock()
}

// Check is the per-call verdict: whether to drop the request and how much
// extra latency to add before sending it, drop rules drawing from src.
// Matching rules compose — any drop verdict wins, delays accumulate.
func (r *RPCRules) Check(src *stream.Source64, to transport.Addr, method string) (drop bool, delay time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rule := range r.rules {
		if rule.Method != "" && rule.Method != method {
			continue
		}
		if rule.Drop > 0 && src.Float64() < rule.Drop {
			drop = true
		}
		delay += rule.Delay
	}
	return drop, delay
}
