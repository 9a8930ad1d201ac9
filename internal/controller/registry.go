package controller

import (
	"slices"
	"sync"
	"time"
)

// The daemon registry is one table under one lock. Its traffic is one
// put per hello, a removal per disconnect or expiry, a lookup per
// deployed daemon at StopJob and per DropDaemon, one selection per
// placement round and one slice per monitor tick; no frame touches it (a
// frame takes only its session's lock), and in simulation every caller
// runs on the controller's partition, one task at a time.
//
// Sessions sit in name-hash buckets, each in insertion order. Snapshots
// concatenate the buckets in index order, so iteration order is a
// deterministic function of connection order — a requirement for
// bit-for-bit reproducible simulations (see DESIGN.md) — and selection's
// tie-break, the blacklist fan-out and every golden see that order.
const (
	numBuckets = 16 // power of two; bucket = hash & (numBuckets-1)

	// pingSlices staggers session monitoring: each monitor tick serves
	// one slice, so a full pingEvery period spreads the ping fan-out over
	// pingSlices time-slices instead of bursting the whole population. A
	// slice is a contiguous group of buckets (bucketsPerSlice each), so a
	// tick reads O(n/pingSlices) sessions, not the full population.
	pingSlices      = 8
	bucketsPerSlice = numBuckets / pingSlices
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

type registry struct {
	mu      sync.Mutex
	daemons map[string]*daemonSession
	buckets [numBuckets][]*daemonSession // each bucket's live sessions, in insertion order
	cursor  int                          // the monitor slice nextSlice serves
}

func newRegistry() *registry {
	return &registry{daemons: make(map[string]*daemonSession)}
}

// put installs d under its name and returns the session it displaced, if
// any. The displaced session is already removed from the registry. A
// session whose connection comes from another host than the registered
// one's displaces nothing: put then installs nothing and reports !ok.
func (r *registry) put(d *daemonSession) (old *daemonSession, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old = r.daemons[d.name]
	if old != nil {
		if old.conn.RemoteAddr().Host != d.conn.RemoteAddr().Host {
			return nil, false
		}
		r.dropLocked(old)
	}
	r.daemons[d.name] = d
	b := &r.buckets[d.hash&(numBuckets-1)]
	*b = append(*b, d)
	return old, true
}

// get looks a session up by name.
func (r *registry) get(name string) (*daemonSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.daemons[name]
	return d, ok
}

// removeIf drops the session registered under name only if it is still d
// (a reconnect may have replaced it).
func (r *registry) removeIf(d *daemonSession) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.daemons[d.name] != d {
		return false
	}
	r.dropLocked(d)
	return true
}

func (r *registry) dropLocked(d *daemonSession) {
	delete(r.daemons, d.name)
	b := &r.buckets[d.hash&(numBuckets-1)]
	if i := slices.Index(*b, d); i >= 0 {
		*b = slices.Delete(*b, i, i+1) // clears the vacated slot
	}
}

// count returns the live session count.
func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.daemons)
}

// snapshot returns every live session, buckets in index order and
// insertion order within a bucket: deterministic for a deterministic
// connect order.
func (r *registry) snapshot() []*daemonSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Concat(r.buckets[:]...)
}

// nextSlice returns the sessions of the monitor time-slice due now — those
// of buckets [n·bucketsPerSlice, (n+1)·bucketsPerSlice) — and moves the
// cursor to the next slice.
func (r *registry) nextSlice() []*daemonSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.cursor
	r.cursor = (n + 1) % pingSlices
	return slices.Concat(r.buckets[n*bucketsPerSlice : (n+1)*bucketsPerSlice]...)
}

// fastest returns the k most responsive sessions whose names skip does not
// hold, fastest first, and how many sessions skip let through. The result
// is exactly snapshot() filtered by skip, stably sorted by rtt (unmeasured
// daemons last) and cut to k — in one pass and O(k) memory: a max-heap
// keeps the k best seen so far, and a session replaces the slowest of them
// only if it ranks strictly before it, so ties keep snapshot order.
//
// Each rtt is read under d.mu while the registry is locked. The lock order
// is registry, then session; nothing takes the registry lock while holding
// a session's.
func (r *registry) fastest(k int, skip map[string]bool) (best []*daemonSession, eligible int) {
	r.mu.Lock()
	h := make(rankHeap, 0, min(k, len(r.daemons)))
	for _, b := range &r.buckets {
		for _, d := range b {
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
	}
	r.mu.Unlock()
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
