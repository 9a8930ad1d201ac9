package ring

import "unsafe"

// Slab hands out fixed-length []Handle blocks — finger tables — from
// chunked backing storage, so a 100k-node ring does not pay a malloc and
// permanent GC scan pressure per table. Freed blocks (nodes that leave
// under churn) return through a free list; never-free semantics would
// leak a block per departure. Blocks are zeroed on every Get, including
// reused ones, so reuse can never leak routing state between owners. A
// Slab suits state with a single owner and an explicit release point;
// state whose pointers escape into kernel events (simnet's connections)
// stays one plain heap object per unit.
//
// A Slab is single-threaded: in partitioned simulations each partition
// owns its own slabs.
type Slab struct {
	blockLen int
	perChunk int
	chunks   [][]Handle
	used     int // blocks handed out from the newest chunk
	free     [][]Handle
}

// NewSlab returns a slab of blockLen-length blocks, carving
// blocksPerChunk blocks (minimum 16) per backing allocation.
func NewSlab(blockLen, blocksPerChunk int) *Slab {
	return &Slab{blockLen: max(blockLen, 1), perChunk: max(blocksPerChunk, 16)}
}

// BlockLen returns the fixed length of every block.
func (s *Slab) BlockLen() int { return s.blockLen }

// Get returns a zeroed block of BlockLen handles, reusing a freed block
// when one is available.
func (s *Slab) Get() []Handle {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		clear(b)
		return b
	}
	if len(s.chunks) == 0 || s.used == s.perChunk {
		s.chunks = append(s.chunks, make([]Handle, s.blockLen*s.perChunk))
		s.used = 0
	}
	chunk := s.chunks[len(s.chunks)-1]
	b := chunk[s.used*s.blockLen : (s.used+1)*s.blockLen : (s.used+1)*s.blockLen]
	s.used++
	return b
}

// Put returns a block to the free list. Only blocks obtained from this
// slab's Get may be returned, each at most once; blocks of the wrong
// length are dropped (defensively) rather than recycled.
func (s *Slab) Put(b []Handle) {
	if len(b) != s.blockLen {
		return
	}
	s.free = append(s.free, b)
}

// Live returns the number of blocks currently handed out and not freed.
func (s *Slab) Live() int {
	total := 0
	if n := len(s.chunks); n > 0 {
		total = (n-1)*s.perChunk + s.used
	}
	return total - len(s.free)
}

// Bytes returns the heap bytes the slab's chunks occupy — the memory
// plane's accounting hook. Chunks are counted whole: slack at the tail of
// the newest chunk is committed memory like any other slot.
func (s *Slab) Bytes() uint64 {
	return uint64(len(s.chunks)) * uint64(s.blockLen*s.perChunk) * uint64(unsafe.Sizeof(Handle(0)))
}
