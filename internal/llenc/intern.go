package llenc

import "sync/atomic"

// Short strings the derived plans decode are shared through one bounded,
// lock-free table: a fixed array of slots, direct-mapped by an FNV-1a
// hash of the bytes, each holding the last string decoded there. Peers'
// host names ("n123") recur in every message and every list of peers, so
// a hit hands back the string decoded before instead of allocating a
// copy, and every list entry naming the same host shares one string. A
// miss allocates as before and takes the slot. Strings are immutable and
// a hit is checked byte for byte, so what a parse returns is equal to a
// fresh conversion whatever the table holds: no output can depend on it.
// Slots are loaded and stored atomically, so both kernel partitions'
// threads share the table.
//
// Fixed cost: internSlots pointers (32 KB, outside the heap), plus at most
// one live string per slot (a 16-byte header and ≤ 24 bytes of data),
// which bounds the table's heap at 160 KB however many strings pass
// through it.
const (
	internSlots  = 1 << 12
	internMaxLen = 24
)

var interned [internSlots]atomic.Pointer[string]

// intern returns string(b), shared with earlier calls on equal bytes
// while their slot still holds them. Empty and longer strings are not
// shared.
func intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &interned[h&(internSlots-1)]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}
