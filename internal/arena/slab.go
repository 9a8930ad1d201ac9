// Package arena provides chunked slab allocation for population-scaled
// simulation state that is uniform and comes back: a 100k-node ring holds
// one finger table per node, nodes leave under churn, and allocating each
// table individually costs a malloc plus permanent GC scan pressure.
//
// The memory plane's rule is that closed costs nothing and heap follows the
// live population, and the allocator is chosen by who can say when a value
// is dead. State whose pointers escape into scheduled kernel events
// (simnet's connections) has no such owner: it is one plain heap object
// per unit and the collector reclaims it — on cyclon_churn 164,132
// connection pairs are made over a run that ends with 60,320 open, and
// storage that never frees would hold all of them. State with a single
// owner and an explicit release point takes a Slab: blocks return through
// a free list and are zeroed on reuse.
package arena

import "unsafe"

// Slab hands out fixed-length []T blocks from chunked backing storage,
// recycling freed blocks through a free list — finger tables of nodes that
// leave under churn, where never-free semantics would leak a block per
// departure. Blocks are zeroed on every Get, including reused ones, so a
// recycled block is indistinguishable from a fresh one and reuse can never
// leak routing state between owners.
//
// A Slab is single-threaded: in partitioned simulations each partition
// owns its own slabs.
type Slab[T any] struct {
	blockLen int
	perChunk int
	chunks   [][]T
	used     int // blocks handed out from the newest chunk
	free     [][]T
	handed   int // Get calls
	reused   int // Gets served from the free list
}

// NewSlab returns a slab of blockLen-length blocks, carving
// blocksPerChunk blocks (minimum 16) per backing allocation.
func NewSlab[T any](blockLen, blocksPerChunk int) *Slab[T] {
	if blockLen < 1 {
		blockLen = 1
	}
	if blocksPerChunk < 16 {
		blocksPerChunk = 16
	}
	return &Slab[T]{blockLen: blockLen, perChunk: blocksPerChunk}
}

// BlockLen returns the fixed length of every block.
func (s *Slab[T]) BlockLen() int { return s.blockLen }

// Get returns a zeroed block of BlockLen values, reusing a freed block
// when one is available.
func (s *Slab[T]) Get() []T {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		var zero T
		for i := range b {
			b[i] = zero
		}
		s.handed++
		s.reused++
		return b
	}
	if len(s.chunks) == 0 || s.used == s.perChunk {
		s.chunks = append(s.chunks, make([]T, s.blockLen*s.perChunk))
		s.used = 0
	}
	chunk := s.chunks[len(s.chunks)-1]
	b := chunk[s.used*s.blockLen : (s.used+1)*s.blockLen : (s.used+1)*s.blockLen]
	s.used++
	s.handed++
	return b
}

// Put returns a block to the free list. Only blocks obtained from this
// slab's Get may be returned, each at most once; blocks of the wrong
// length are dropped (defensively) rather than recycled.
func (s *Slab[T]) Put(b []T) {
	if len(b) != s.blockLen {
		return
	}
	s.free = append(s.free, b)
}

// Live returns the number of blocks currently handed out and not freed.
func (s *Slab[T]) Live() int {
	total := 0
	if n := len(s.chunks); n > 0 {
		total = (n-1)*s.perChunk + s.used
	}
	return total - len(s.free)
}

// Reused returns how many Gets were served from the free list.
func (s *Slab[T]) Reused() int { return s.reused }

// Bytes returns the heap bytes the slab's chunks occupy — the memory
// plane's accounting hook. Chunks are counted whole: slack at the tail of
// the newest chunk is committed memory like any other slot.
func (s *Slab[T]) Bytes() uint64 {
	var zero T
	return uint64(len(s.chunks)) * uint64(s.blockLen*s.perChunk) * uint64(unsafe.Sizeof(zero))
}
