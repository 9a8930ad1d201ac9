// Package metrics implements the observability plane's node-side
// instrument library: the in-band monitoring facility the paper's log
// collector (§3.1, §3.4) stops short of. Where logging ships raw
// records, metrics ships *aggregates*: applications and runtime layers
// increment counters, set gauges and observe histogram samples on a hot
// path built like the kernel and RPC fast paths (zero allocations,
// one atomic word per counter), and a Reporter periodically encodes the
// *deltas* since the last report into one batched frame for the
// controller-side Aggregator — the ACME-style in-band aggregation plane
// rather than raw log shipping.
//
// Instruments are nil-safe: every method on a nil *Counter, *Gauge,
// *Histogram or *Registry is a no-op, so packages thread optional
// instrumentation through a struct of instrument pointers and pay a
// single predictable branch when monitoring is off. Incrementing an
// instrument touches only memory — no tasks, no I/O, no randomness from
// any seeded source — so instrumented code keeps bit-identical
// simulation schedules whether or not a registry is attached; only
// *reporting* (which puts frames on the network) is opt-in per
// deployment. See DESIGN.md ("The observability plane").
package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument types on the wire.
type Kind uint8

// Instrument kinds. The values are part of the report wire format.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistLinear
	KindHistPow2
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistLinear:
		return "hist-linear"
	case KindHistPow2:
		return "hist-pow2"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing count: one atomic word. Every
// registry belongs to one instance or one process loop, so its writers
// rarely contend and striping the word across cache lines would only
// cost memory. The zero value is ready to use; a nil *Counter discards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Total returns the count since creation.
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value (queue depths, population
// sizes). A nil *Gauge discards.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of every histogram. Fixed size
// keeps Observe branch-free, snapshots pooled, and merged views
// directly addable.
const NumBuckets = 64

// Histogram is a fixed-bucket distribution. Two layouts cover the
// plane's needs:
//
//   - KindHistLinear: bucket i holds exactly the observations of value
//     i (the last bucket absorbs everything ≥ NumBuckets-1) — exact for
//     small integers like route lengths.
//   - KindHistPow2: bucket i holds observations v with bits.Len64(v)==i,
//     i.e. v in [2^(i-1), 2^i) — exponential resolution for nanosecond
//     latencies up to ~292 years.
//
// A nil *Histogram discards. The buckets hold only the observations
// not yet reported (a Reporter drains them); count and sum are lifetime
// totals. Bucket storage is allocated on the first observation, so a
// registered-but-quiet histogram costs a header, not 512 bytes of
// bucket words.
type Histogram struct {
	kind    Kind
	count   atomic.Uint64
	sum     atomic.Int64
	buckets atomic.Pointer[bucketBlock]
}

// bucketBlock is a histogram's bucket storage, allocated on first touch.
type bucketBlock [NumBuckets]atomic.Uint64

// block returns the bucket storage, allocating it on the first call. A
// racing allocation loses the CAS and adopts the winner's block, so
// every writer counts into the same storage.
func (h *Histogram) block() *bucketBlock {
	b := h.buckets.Load()
	if b == nil {
		b = new(bucketBlock)
		if !h.buckets.CompareAndSwap(nil, b) {
			b = h.buckets.Load()
		}
	}
	return b
}

// bucketOf maps a value to its bucket. Negative values clamp to 0.
func bucketOf(kind Kind, v int64) int {
	if v <= 0 {
		return 0
	}
	if kind == KindHistLinear {
		if v >= NumBuckets {
			return NumBuckets - 1
		}
		return int(v)
	}
	return bits.Len64(uint64(v)) // v > 0 ⇒ in [1, 63]
}

// BucketUpper returns the largest value bucket i can hold under kind —
// the pessimistic representative aggregation uses for percentiles.
func BucketUpper(kind Kind, i int) int64 {
	if kind == KindHistLinear || i <= 0 {
		return int64(i)
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.block()[bucketOf(h.kind, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// drain appends the (bucket, count) pairs observed since the last drain
// to pairs, in ascending bucket order, and zeroes those buckets. An
// observation racing the drain lands in this drain or the next, never
// in neither.
func (h *Histogram) drain(pairs []uint64) []uint64 {
	b := h.buckets.Load()
	if b == nil {
		return pairs
	}
	for i := range b {
		if b[i].Load() != 0 {
			pairs = append(pairs, uint64(i), b[i].Swap(0))
		}
	}
	return pairs
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// instrument is one registered series. A counter or gauge lives inside
// its record, so registering one is a single allocation.
type instrument struct {
	name string
	kind Kind
	c    Counter
	g    Gauge
	h    *Histogram
}

// Registry is a node's set of named instruments. Registration assigns
// dense ids in registration order — the dictionary the wire protocol
// ships once per stream — and is idempotent per name. A nil *Registry
// hands out nil instruments, the disabled configuration.
//
// The instrument list is the only index: a node registers a dozen or so
// series, looked up once each at startup, so the name map a registry
// used to carry was pure per-node overhead at population scale.
type Registry struct {
	mu     sync.Mutex
	instrs []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// lookup returns the named instrument, creating it with mk when absent.
// Existing instruments of a different kind return nil rather than
// mixing series.
func (r *Registry) lookup(name string, kind Kind, mk func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.instrs {
		if in.name == name {
			if in.kind != kind {
				return nil
			}
			return in
		}
	}
	in := mk()
	r.instrs = append(r.instrs, in)
	return in
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	in := r.lookup(name, KindCounter, func() *instrument {
		return &instrument{name: name, kind: KindCounter}
	})
	if in == nil {
		return nil
	}
	return &in.c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	in := r.lookup(name, KindGauge, func() *instrument {
		return &instrument{name: name, kind: KindGauge}
	})
	if in == nil {
		return nil
	}
	return &in.g
}

// Histogram returns the named histogram, creating it with the given
// layout if needed. kind must be KindHistLinear or KindHistPow2.
func (r *Registry) Histogram(name string, kind Kind) *Histogram {
	if r == nil {
		return nil
	}
	if kind != KindHistLinear && kind != KindHistPow2 {
		return nil
	}
	in := r.lookup(name, kind, func() *instrument {
		return &instrument{name: name, kind: kind, h: &Histogram{kind: kind}}
	})
	if in == nil {
		return nil
	}
	return in.h
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.instrs)
}

// snapshot returns the id-ordered instrument list. The slice only ever
// grows, so holding the returned prefix is safe without the lock.
func (r *Registry) snapshot() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instrs
}
