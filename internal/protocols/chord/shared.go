package chord

import (
	"github.com/splaykit/splay/internal/arena"
	"github.com/splaykit/splay/internal/ring"
	"github.com/splaykit/splay/internal/transport"
)

// Shared is the per-partition memory plane for co-located Chord nodes:
// the NodeRef intern table their routing entries index into, and the
// slab backing their fixed-capacity finger arrays. Sharing is what makes
// a node's routing state cost handles instead of references — a finger
// table shrinks from ~32 bytes per entry to 4 — while keeping every
// mutable structure owned by exactly one partition.
//
// A Shared must only be given to nodes created on the same partition
// (the same sub-kernel): its interner and slab are single-threaded by
// design. Nodes created without one get a private Shared, which is
// correct but buys no sharing; its one finger array is a plain allocation,
// not a slab chunk.
type Shared struct {
	refs *ring.Interner[NodeRef]
	slab *arena.Slab[ring.Handle] // created on first finger allocation
	cfgs []*Config                // interned normalized configs (see internConfig)
}

// NewShared returns per-partition storage over base, which holds the
// population known before the run (nil when membership is discovered
// only at runtime — all references then intern into the overlay).
func NewShared(base *ring.Base[NodeRef]) *Shared {
	return &Shared{refs: ring.NewInterner(base)}
}

// Population precomputes the ring membership for a known address set
// using cfg's identifier space — the same hash New applies — so the
// intern base can be built once and shared read-only across every
// partition's Shared. ids, when non-nil, overrides the hashed
// identifier per address (the harness's pre-drawn random IDs).
func Population(cfg Config, addrs []transport.Addr, ids []uint64) *ring.Base[NodeRef] {
	space := ring.NewSpace(cfg.Bits)
	refs := make([]NodeRef, len(addrs))
	for i, a := range addrs {
		id := space.HashString(a.String())
		if ids != nil {
			id = space.Fold(ids[i])
		}
		refs[i] = NodeRef{ID: id, Addr: a}
	}
	return ring.NewBase(refs)
}

// internConfig returns the partition's canonical copy of a normalized
// config, content-matched with per-node fields (ID, Shared) blanked: a
// deployment uses one or two distinct configs, so every node storing a
// pointer into this table drops the 72-byte struct from its own state.
func (s *Shared) internConfig(cfg Config) *Config {
	cfg.ID, cfg.Shared = nil, nil
	for _, p := range s.cfgs {
		if *p == cfg {
			return p
		}
	}
	p := &cfg
	s.cfgs = append(s.cfgs, p)
	return p
}

// fingers hands out one node's finger array. Arrays of the partition's
// common length come from the slab (and return to it on Stop); an
// off-size request — mixed Bits configs on one partition — falls back to
// a plain allocation. So does a private Shared, the one New makes for a
// node given none: a slab chunk would cost that node 256 arrays to hold
// one.
func (s *Shared) fingers(n int, private bool) []ring.Handle {
	if s.slab == nil && !private {
		s.slab = arena.NewSlab[ring.Handle](n, 256)
	}
	if s.slab == nil || s.slab.BlockLen() != n {
		return make([]ring.Handle, n)
	}
	return s.slab.Get()
}

// release returns a finger array to the slab.
func (s *Shared) release(b []ring.Handle) {
	if s.slab != nil {
		s.slab.Put(b)
	}
}

// Bytes reports the Shared's heap footprint (overlay and slab; a shared
// base is accounted once by whoever built it).
func (s *Shared) Bytes() uint64 {
	var b uint64
	if s.refs != nil {
		b += s.refs.Bytes()
	}
	if s.slab != nil {
		b += s.slab.Bytes()
	}
	return b
}
