package ring

import (
	"math/rand"
	"testing"
)

// TestSlabReuseUnderChurn drives free/realloc cycles — the finger-table
// lifecycle under churn — and checks that freed blocks are recycled
// rather than leaked, and that a recycled block is zeroed so no routing
// state survives its previous owner.
func TestSlabReuseUnderChurn(t *testing.T) {
	s := NewSlab(8, 16)
	rng := rand.New(rand.NewSource(42))
	live := make([][]Handle, 0, 64)
	freed := map[*Handle]bool{}
	reused := 0
	for round := 0; round < 1000; round++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			freed[&live[i][0]] = true
			s.Put(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		b := s.Get()
		if len(b) != 8 {
			t.Fatalf("block length %d, want 8", len(b))
		}
		if freed[&b[0]] {
			reused++
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("round %d: recycled block not zeroed at [%d]: %d", round, i, v)
			}
		}
		for i := range b {
			b[i] = Handle(rng.Uint32() | 1) // never zero: distinguishes stale state
		}
		live = append(live, b)
	}
	if s.Live() != len(live) {
		t.Errorf("Live() = %d, want %d", s.Live(), len(live))
	}
	if reused == 0 {
		t.Error("1000 churn rounds never reused a freed block")
	}
	// Steady-state churn must not grow the backing storage: the chunk
	// count is bounded by the peak population, not the allocation count.
	if got, bound := s.Bytes(), uint64(4*8*16*16); got > bound {
		t.Errorf("slab grew to %d backing bytes under churn (bound %d)", got, bound)
	}
}

// TestSlabPutWrongLength pins the defensive contract: a block of the
// wrong length is dropped, never recycled into callers expecting
// BlockLen handles.
func TestSlabPutWrongLength(t *testing.T) {
	s := NewSlab(4, 16)
	s.Put(make([]Handle, 3))
	b := s.Get()
	if len(b) != 4 {
		t.Fatalf("got length-%d block after wrong-length Put", len(b))
	}
	if s.Live() != 1 {
		t.Error("wrong-length block was recycled")
	}
}
