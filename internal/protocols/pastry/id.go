// Package pastry implements the Pastry structured overlay used throughout
// §5 of the paper: prefix routing with a 2^b-ary routing table, a leaf
// set, locality-aware table construction, and the repair mechanisms the
// churn experiments exercise (Figs. 7, 9, 10, 11). The SPLAY
// implementation is compared against FreePastry by running the same
// protocol under the JVM host model (internal/hostmodel).
package pastry

import (
	"fmt"
	"math/bits"
	"strconv"

	"github.com/splaykit/splay/internal/llenc"
)

// Identifier geometry: b = 4 (hexadecimal digits), 64-bit identifiers,
// hence 16 rows of 16 columns, matching FreePastry's defaults scaled to a
// 64-bit space.
const (
	DigitBits = 4
	Digits    = 64 / DigitBits // rows in the routing table
	Radix     = 1 << DigitBits // columns per row
)

// ID is a Pastry identifier. It serializes as a 16-hex-digit string so it
// survives JSON untouched (64-bit integers do not fit JSON numbers).
type ID uint64

// String renders the identifier in hex.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// AppendText implements encoding.TextAppender: the String form.
func (id ID) AppendText(b []byte) ([]byte, error) { return llenc.AppendHex64(b, uint64(id)), nil }

// MarshalText implements encoding.TextMarshaler.
func (id ID) MarshalText() ([]byte, error) { return id.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(s []byte) error {
	v, err := strconv.ParseUint(string(s), 16, 64)
	if err != nil {
		return fmt.Errorf("pastry: bad id %q: %w", s, err)
	}
	*id = ID(v)
	return nil
}

// Digit returns the identifier's row-th digit (0 is the most significant).
func (id ID) Digit(row int) int {
	shift := 64 - DigitBits*(row+1)
	return int(uint64(id)>>shift) & (Radix - 1)
}

// CommonPrefix returns the number of leading digits a and b share.
func CommonPrefix(a, b ID) int {
	if a == b {
		return Digits
	}
	return bits.LeadingZeros64(uint64(a)^uint64(b)) / DigitBits
}

// Dist is the circular distance between identifiers: the metric used to
// pick a key's root and the numerically closest leaf.
func Dist(a, b ID) uint64 {
	d := uint64(a) - uint64(b)
	if rd := uint64(b) - uint64(a); rd < d {
		return rd
	}
	return d
}

// CWDist is the clockwise distance from a to b, used to order the leaf
// set's two half-rings.
func CWDist(a, b ID) uint64 { return uint64(b) - uint64(a) }

// Closer reports whether x is strictly closer to key than y, breaking
// ties toward the lower identifier so every node agrees on roots.
func Closer(key, x, y ID) bool {
	dx, dy := Dist(x, key), Dist(y, key)
	if dx != dy {
		return dx < dy
	}
	return x < y
}
