// Package ring provides identifier-space arithmetic for ring-structured
// overlays: the paper's misc.between_c and friends, used by Chord (Pastry
// keeps its own 64-bit ID arithmetic). Identifiers live in [0, 2^m) for a
// configurable m ≤ 64.
package ring

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// Space is an identifier space of size 2^Bits.
type Space struct {
	Bits uint
}

// NewSpace returns a space with m-bit identifiers. The paper's Chord uses
// m = 24 (§4, Listing 3); Pastry-style overlays use larger spaces.
func NewSpace(bits uint) Space {
	if bits == 0 || bits > 64 {
		panic(fmt.Sprintf("ring: invalid bits %d", bits))
	}
	return Space{Bits: bits}
}

// Size returns 2^m as a modulus mask helper; for m=64 it wraps to 0 and
// Mask must be used instead.
func (s Space) Mask() uint64 {
	if s.Bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << s.Bits) - 1
}

// Fold reduces x into the identifier space.
func (s Space) Fold(x uint64) uint64 { return x & s.Mask() }

// Add returns (a + d) mod 2^m.
func (s Space) Add(a, d uint64) uint64 { return (a + d) & s.Mask() }

// Sub returns (a - b) mod 2^m: the counter-clockwise distance from b to a.
func (s Space) Sub(a, b uint64) uint64 { return (a - b) & s.Mask() }

// Dist returns the clockwise distance from a to b.
func (s Space) Dist(a, b uint64) uint64 { return s.Sub(b, a) }

// Between reports whether x lies in the circular interval from a to b,
// with configurable bound inclusion — the paper's between(x, a, b, inclA,
// inclB). With a == b the interval is the whole ring (exclusive of the
// bounds unless included).
func (s Space) Between(x, a, b uint64, inclA, inclB bool) bool {
	x, a, b = s.Fold(x), s.Fold(a), s.Fold(b)
	if x == a {
		return inclA
	}
	if x == b {
		return inclB
	}
	if a == b {
		return true // full circle, x differs from both bounds
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// HashString maps a string (typically "ip:port") into the space, the way
// Chord derives node identifiers.
func (s Space) HashString(v string) uint64 {
	sum := sha1.Sum([]byte(v))
	return s.Fold(binary.BigEndian.Uint64(sum[:8]))
}

// FingerStart returns n + 2^(i-1) mod 2^m, the start of finger i (1-based,
// matching the paper's fix_fingers).
func (s Space) FingerStart(n uint64, i uint) uint64 {
	return s.Add(n, uint64(1)<<(i-1))
}
