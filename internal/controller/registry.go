package controller

import (
	"slices"
	"sync"
	"time"
)

// The daemon registry is sharded by a hash of the daemon name so that
// sessions (connect/disconnect), monitoring and selection no longer
// serialize on a single controller-wide mutex: with thousands of daemons
// the registry is touched on every frame, and one lock was the scaling
// bottleneck the paper's §5.2/§5.3 controller-load evaluation exposes.
//
// Each shard keeps both a map (lookup by name) and an insertion-ordered
// slice. Snapshots concatenate the shards in index order, so iteration
// order is a deterministic function of connection order — a requirement
// for bit-for-bit reproducible simulations (see DESIGN.md).
const (
	numShards = 16 // power of two; shard = hash & (numShards-1)

	// pingSlices staggers session monitoring: each monitor tick serves
	// one slice, so a full pingEvery period spreads the ping fan-out over
	// pingSlices time-slices instead of bursting the whole population. A
	// slice is a contiguous group of shards (shardsPerSlice each), so a
	// tick touches only its own shards' locks and lists — O(n/pingSlices)
	// per tick, not a full-population scan.
	pingSlices     = 8
	shardsPerSlice = numShards / pingSlices
)

// nameHash is FNV-1a over the daemon name.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

type regShard struct {
	mu      sync.Mutex
	daemons map[string]*daemonSession
	order   []*daemonSession // insertion order of the live sessions
}

type registry struct {
	shards [numShards]regShard
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].daemons = make(map[string]*daemonSession)
	}
	return r
}

func (r *registry) shardFor(hash uint32) *regShard {
	return &r.shards[hash&(numShards-1)]
}

// put installs d under its name and returns the session it displaced, if
// any. The displaced session is already removed from the registry.
func (r *registry) put(d *daemonSession) (old *daemonSession) {
	s := r.shardFor(d.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	old = s.daemons[d.name]
	if old != nil {
		s.dropLocked(old)
	}
	s.daemons[d.name] = d
	s.order = append(s.order, d)
	return old
}

// get looks a session up by name.
func (r *registry) get(name string) (*daemonSession, bool) {
	s := r.shardFor(nameHash(name))
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.daemons[name]
	return d, ok
}

// removeIf drops the session registered under name only if it is still d
// (a reconnect may have replaced it).
func (r *registry) removeIf(d *daemonSession) bool {
	s := r.shardFor(d.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.daemons[d.name] != d {
		return false
	}
	s.dropLocked(d)
	return true
}

func (s *regShard) dropLocked(d *daemonSession) {
	delete(s.daemons, d.name)
	if i := slices.Index(s.order, d); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1) // clears the vacated slot
	}
}

// count returns the live session count.
func (r *registry) count() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.daemons)
		s.mu.Unlock()
	}
	return n
}

// snapshot returns every live session, shards in index order and insertion
// order within a shard: deterministic for a deterministic connect order.
func (r *registry) snapshot() []*daemonSession {
	out := make([]*daemonSession, 0, r.count())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.order...)
		s.mu.Unlock()
	}
	return out
}

// fastest returns the k most responsive sessions whose names skip does not
// hold, fastest first, and how many sessions skip let through. The result
// is exactly snapshot() filtered by skip, stably sorted by rtt (unmeasured
// daemons last) and cut to k — in one pass and O(k) memory: a max-heap
// keeps the k best seen so far, and a session replaces the slowest of them
// only if it ranks strictly before it, so ties keep snapshot order.
//
// Each rtt is read under d.mu while its shard is locked. The lock order is
// shard, then session; nothing takes a shard lock while holding a session's.
func (r *registry) fastest(k int, skip map[string]bool) (best []*daemonSession, eligible int) {
	h := make(rankHeap, 0, min(k, r.count()))
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, d := range s.order {
			if skip[d.name] {
				continue
			}
			d.mu.Lock()
			c := rttRank{d: d, rtt: d.rtt, pos: eligible}
			d.mu.Unlock()
			eligible++
			if len(h) < k {
				h = append(h, c)
				h.up(len(h) - 1)
			} else if k > 0 && c.before(&h[0]) {
				h[0] = c
				h.down(0)
			}
		}
		s.mu.Unlock()
	}
	// Heapsort: move the slowest to the back until the heap is empty.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		h[:end].down(0)
	}
	best = make([]*daemonSession, len(h))
	for i := range h {
		best[i] = h[i].d
	}
	return best, eligible
}

// rttRank is one selection candidate: its rtt as read once, and its
// position among the eligible sessions in snapshot order.
type rttRank struct {
	d   *daemonSession
	rtt time.Duration
	pos int
}

// before reports whether a ranks ahead of b: measured daemons first, by
// rtt, then by snapshot position — the order of a stable sort.
func (a *rttRank) before(b *rttRank) bool {
	if (a.rtt == 0) != (b.rtt == 0) {
		return b.rtt == 0
	}
	if a.rtt != b.rtt {
		return a.rtt < b.rtt
	}
	return a.pos < b.pos
}

// rankHeap is a max-heap by rank: the root is the slowest candidate kept.
type rankHeap []rttRank

func (h rankHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[p].before(&h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h rankHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c].before(&h[c+1]) {
			c++
		}
		if !h[i].before(&h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// slice returns the sessions assigned to monitor time-slice n: the
// sessions of shards [n·shardsPerSlice, (n+1)·shardsPerSlice).
func (r *registry) slice(n int) []*daemonSession {
	var out []*daemonSession
	for i := n * shardsPerSlice; i < (n+1)*shardsPerSlice; i++ {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.order...)
		s.mu.Unlock()
	}
	return out
}
