package stream

import (
	"sync"
	"testing"
)

// TestSplitMix64 pins the generator: restarted at state 0 it yields
// splitmix64's published first outputs.
func TestSplitMix64(t *testing.T) {
	var s Source64
	s.Seed(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestKeyedFirstValues pins the first draws of a keyed stream, so a change
// of the key derivation shows here before it moves every golden.
func TestKeyedFirstValues(t *testing.T) {
	s := keyed(1, "app", 1)
	for i, want := range []uint64{0xa8cef1fb2bea6233, 0x168f83ef9ffec40e, 0x27b876534d5c57a5} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d of (1, app, 1) = %#x, want %#x", i, got, want)
		}
	}
	s = keyed(1, "app", 1)
	if a, b := Rand(1, "app", 1).Uint64(), s.Uint64(); a != b {
		t.Errorf("Rand draws %#x, its source %#x", a, b)
	}
}

// TestKeysStayApart: streams that differ in any part of their key — seed,
// domain or id — share none of their first draws.
func TestKeysStayApart(t *testing.T) {
	keys := []struct {
		seed   int64
		domain string
		id     uint64
	}{
		{1, "app", 1}, {2, "app", 1}, {1, "app", 2}, {1, "rpcfault/app", 1},
		{1, "simnet.loss", 1}, {1, "planetlab.jitter", 1}, {1, "", 0}, {0, "", 0}, {0, "", 1},
	}
	seen := map[uint64]int{}
	for k, key := range keys {
		s := keyed(key.seed, key.domain, key.id)
		for i := 0; i < 1000; i++ {
			v := s.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("key %+v repeats a draw of key %+v", key, keys[prev])
			}
			seen[v] = k
		}
	}
}

// TestDrawsAllocateNothing: a draw — raw, through Float64 or through a
// rand.Rand around the stream — allocates nothing.
func TestDrawsAllocateNothing(t *testing.T) {
	s, r := keyed(3, "app", 7), Rand(3, "app", 7)
	if a := testing.AllocsPerRun(1000, func() { s.Uint64(); s.Float64(); r.Intn(100); r.Float64() }); a != 0 {
		t.Errorf("%v allocs per draw, want 0", a)
	}
}

// TestConcurrentDrawsPartitionTheStream: goroutines sharing a stream draw
// disjoint values whose union is exactly the sequential stream.
func TestConcurrentDrawsPartitionTheStream(t *testing.T) {
	const workers, each = 4, 500
	want := map[uint64]bool{}
	ref := keyed(5, "live", 1)
	for i := 0; i < workers*each; i++ {
		want[ref.Uint64()] = true
	}
	s := keyed(5, "live", 1)
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got[w] = append(got[w], s.Uint64())
			}
		}()
	}
	wg.Wait()
	for _, vs := range got {
		for _, v := range vs {
			if !want[v] {
				t.Fatalf("draw %#x is not in the sequential stream, or was drawn twice", v)
			}
			delete(want, v)
		}
	}
}

func keyed(seed int64, domain string, id uint64) *Source64 {
	return new(Source64).Init(seed, domain, id)
}
