package ring

import "unsafe"

// Slab hands out fixed-length []Handle blocks — finger tables — from
// chunked backing storage, so a 100k-node ring does not pay a malloc and
// permanent GC scan pressure per table. Blocks are never freed: a slab
// serves nodes that live as long as it does (a partition's ring for the
// whole run), and the slab is garbage once they are. Every block comes
// zeroed from a fresh chunk. State whose pointers escape into kernel
// events (simnet's connections) stays one plain heap object per unit.
//
// A Slab is single-threaded: in partitioned simulations each partition
// owns its own slabs.
type Slab struct {
	blockLen int
	perChunk int
	chunks   [][]Handle
	used     int // blocks handed out from the newest chunk
}

// NewSlab returns a slab of blockLen-length blocks, carving
// blocksPerChunk blocks (minimum 16) per backing allocation.
func NewSlab(blockLen, blocksPerChunk int) *Slab {
	return &Slab{blockLen: max(blockLen, 1), perChunk: max(blocksPerChunk, 16)}
}

// BlockLen returns the fixed length of every block.
func (s *Slab) BlockLen() int { return s.blockLen }

// Get returns a zeroed block of BlockLen handles.
func (s *Slab) Get() []Handle {
	if len(s.chunks) == 0 || s.used == s.perChunk {
		s.chunks = append(s.chunks, make([]Handle, s.blockLen*s.perChunk))
		s.used = 0
	}
	chunk := s.chunks[len(s.chunks)-1]
	b := chunk[s.used*s.blockLen : (s.used+1)*s.blockLen : (s.used+1)*s.blockLen]
	s.used++
	return b
}

// Live returns the number of blocks handed out.
func (s *Slab) Live() int {
	if n := len(s.chunks); n > 0 {
		return (n-1)*s.perChunk + s.used
	}
	return 0
}

// Bytes returns the heap bytes the slab's chunks occupy — the memory
// plane's accounting hook. Chunks are counted whole: slack at the tail of
// the newest chunk is committed memory like any other slot.
func (s *Slab) Bytes() uint64 {
	return uint64(len(s.chunks)) * uint64(s.blockLen*s.perChunk) * uint64(unsafe.Sizeof(Handle(0)))
}
