package sim

import "math/bits"

// Event scheduling is the kernel's hottest path: every message, timer and
// task switch in a simulation passes through it. Two structural choices keep
// it fast:
//
//   - events are pooled on a free list, so steady-state scheduling performs
//     no heap allocation at all (the kernel's epoch release hands back only
//     what a whole epoch left unused, so it never takes the working set), and
//   - the queue is a hierarchical timer wheel: a ring of 256 buckets of
//     ~2 ms of virtual time each (~0.5 s horizon) absorbs the dominant
//     near-future events (RTT-scale delays, task switches), while far events
//     (RPC timeouts, churn epochs) overflow to a single binary heap and
//     cascade into the ring as the clock approaches them. Most far events
//     are timeouts that get cancelled long before they are due, so the heap
//     is swept of cancelled events whenever it doubles (sweepOverflow).
//
// Each bucket is itself a tiny binary heap ordered by (time, seq), so the
// fully deterministic total order of the original single-heap design is
// preserved exactly: same events, same order, bit for bit. An occupancy
// bitmap (4 words) finds the next non-empty bucket in a handful of
// word operations.

const (
	// slotBits sets the bucket granularity: 1<<21 ns ≈ 2.1 ms of virtual
	// time per bucket. With 256 buckets the ring spans ≈ 0.54 s, which
	// covers RTT delays and protocol ticks; longer timers take the
	// overflow heap.
	slotBits   = 21
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	occWords   = wheelSlots / 64
)

// event is a scheduled kernel action. Events are pooled: gen increments on
// every recycle so stale Timer handles (cancel-after-fire) are no-ops.
type event struct {
	atNS     int64  // virtual time, ns since Epoch
	seq      uint64 // FIFO tiebreak for equal times
	gen      uint64 // incremented when the event is freed/reused
	kind     uint8
	canceled bool

	fn   func()  // evFunc, evSpawn
	task *task   // evResume, evSleep
	w    *Waiter // evWake
	wgen uint64  // waiter generation guard for evWake
	v    any     // wake/resume value

	next *event // free-list link
}

// Event kinds. Encoding the kernel's own actions as typed events (instead of
// closures) is what makes the hot paths allocation-free.
const (
	evFunc   uint8 = iota // call fn on the run loop
	evSpawn               // start fn as a new task
	evResume              // resume task with value v
	evSleep               // wake the sleeping task (two-step, see Sleep)
	evWake                // wake waiter w with v, if its generation matches
)

// evLess orders events by (time, seq): the deterministic total order.
func evLess(a, b *event) bool {
	return a.atNS < b.atNS || (a.atNS == b.atNS && a.seq < b.seq)
}

// evPush inserts e into the binary heap h.
func evPush(h *[]*event, e *event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// evPop removes and returns the minimum event of heap h.
func evPop(h *[]*event) *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	evDown(s, 0)
	return top
}

// evDown restores the heap property below index i of heap s.
func evDown(s []*event, i int) {
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(s[r], s[l]) {
			m = r
		}
		if !evLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// wheel is the kernel's event queue: the near-future ring plus the overflow
// heap. The zero value is ready to use at virtual time zero.
type wheel struct {
	startSlot int64 // nowNS >> slotBits: the cursor bucket
	ringCount int   // events currently in the ring
	buckets   [wheelSlots][]*event
	occ       [occWords]uint64 // bitmap of non-empty buckets
	overflow  []*event         // events beyond the ring horizon
	sweepAt   int              // len(overflow) at which push asks for a sweep; the first one sets it

	// The longest each slice has been since the last release (see Trim),
	// and a bitmap of the buckets that have been longer than trimSlack: the
	// only ones a release may trim, so the only ones it visits and resets.
	// An unmarked bucket's mark is never above trimSlack, below any length
	// that marks it, so it needs no reset.
	high     [wheelSlots]int32
	big      [occWords]uint64
	overHigh int
}

func (q *wheel) size() int { return q.ringCount + len(q.overflow) }

// slots is the capacity of the queue's slices: what it holds for reuse
// beyond the events queued.
func (q *wheel) slots() int {
	n := cap(q.overflow)
	for i := range q.buckets {
		n += cap(q.buckets[i])
	}
	return n
}

// push enqueues e (atNS and seq already set). Events within the horizon go
// to their ring bucket; the rest overflow. It reports whether the overflow
// heap has reached its sweep watermark.
func (q *wheel) push(e *event) (sweep bool) {
	if (e.atNS>>slotBits)-q.startSlot < wheelSlots {
		i := int((e.atNS >> slotBits) & wheelMask)
		b := &q.buckets[i]
		evPush(b, e)
		n := int32(len(*b))
		q.high[i] = max(q.high[i], n)
		if n > trimSlack {
			q.big[i>>6] |= 1 << uint(i&63)
		}
		q.occ[i>>6] |= 1 << uint(i&63)
		q.ringCount++
		return false
	}
	evPush(&q.overflow, e)
	q.overHigh = max(q.overHigh, len(q.overflow))
	return len(q.overflow) >= q.sweepAt
}

// release trims the queue's slices to the epoch's use (see Trim) and starts
// the next epoch's high-water marks at their lengths. It visits only the
// buckets marked big, so an epoch with one event costs a few words.
func (q *wheel) release() {
	for w := range q.big {
		for m := q.big[w]; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			b := Trim(q.buckets[i], int(q.high[i]))
			q.buckets[i], q.high[i] = b, int32(len(b))
			if cap(b) <= trimSlack {
				q.big[w] &^= 1 << uint(i&63)
			}
		}
	}
	q.overflow = Trim(q.overflow, q.overHigh)
	q.overHigh = len(q.overflow)
}

// Trim is the release rule for a slice that a pool or queue keeps for
// reuse: given the longest it has been since the last release, it returns
// s unchanged while its capacity is within four times that high-water mark
// plus trimSlack, and otherwise a copy of s (same elements, same order)
// with capacity for exactly the high-water mark. Append growth never
// leaves a slice more than about twice its length, so a steady load is
// never trimmed; capacity only a burst needed goes at the first release
// after it.
func Trim[T any](s []T, high int) []T {
	if cap(s) <= 4*high+trimSlack {
		return s
	}
	t := make([]T, len(s), max(high, len(s)))
	copy(t, s)
	return t
}

// trimSlack is the capacity every slice may keep whatever its use: the
// few slots of a ring bucket that a sparse load touches once in several
// epochs are not worth re-allocating.
const trimSlack = 16

// minSweepAt is the smallest overflow size worth sweeping.
const minSweepAt = 1024

// sweepOverflow recycles the cancelled events of the overflow heap. Every
// answered RPC leaves its cancelled timeout there until the deadline, which
// under steady traffic is most of the heap. The next sweep waits until the
// heap is twice the survivors, so the cost is amortised O(1) per push; and
// because (atNS, seq) is a strict total order, the survivors pop in the same
// order whatever shape the rebuilt heap has. (A swept event can no longer
// anchor a ParKernel window through peekNS; that moves barriers, never a
// partition's own event order.)
func (k *Kernel) sweepOverflow() {
	q := &k.wq
	live := q.overflow[:0]
	for _, e := range q.overflow {
		if e.canceled {
			k.free(e)
		} else {
			live = append(live, e)
		}
	}
	clear(q.overflow[len(live):])
	q.overflow = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		evDown(live, i)
	}
	q.sweepAt = max(minSweepAt, 2*len(live))
}

// minSlot returns the bucket index holding the earliest ring event. It must
// only be called with ringCount > 0. Buckets are scanned in time order:
// from the cursor bucket forward, wrapping once (indices below the cursor
// are one horizon ahead).
func (q *wheel) minSlot() int {
	cur := int(q.startSlot) & wheelMask
	w := cur >> 6
	bits64 := q.occ[w] >> uint(cur&63) << uint(cur&63) // mask bits below cursor
	for i := 0; i <= occWords; i++ {
		if bits64 != 0 {
			return w<<6 + bits.TrailingZeros64(bits64)
		}
		w++
		if w == occWords {
			w = 0
		}
		bits64 = q.occ[w]
	}
	panic("sim: timer wheel occupancy bitmap out of sync")
}

// peek returns the earliest queued event without removing it, or nil when
// the queue is empty. Ring events are always earlier than overflow events
// (overflow lies beyond the ring horizon), so the ring is checked first.
func (q *wheel) peek() *event {
	if q.ringCount > 0 {
		return q.buckets[q.minSlot()][0]
	}
	if len(q.overflow) > 0 {
		return q.overflow[0]
	}
	return nil
}

// pop removes and returns the earliest event, or nil if the queue is empty
// or (when bounded) the earliest event fires after limitNS. Ring events are
// always earlier than overflow events, so the ring is checked first.
func (q *wheel) pop(limitNS int64, bounded bool) *event {
	if q.ringCount > 0 {
		slot := q.minSlot()
		b := &q.buckets[slot]
		e := (*b)[0]
		if bounded && e.atNS > limitNS {
			return nil
		}
		evPop(b)
		if len(*b) == 0 {
			q.occ[slot>>6] &^= 1 << uint(slot&63)
		}
		q.ringCount--
		return e
	}
	if len(q.overflow) > 0 {
		e := q.overflow[0]
		if bounded && e.atNS > limitNS {
			return nil
		}
		evPop(&q.overflow)
		return e
	}
	return nil
}

// advanceTo moves the cursor to slot, the bucket containing a later
// virtual time, and cascades overflow events that fall inside the new
// horizon into the ring. Every overflow event migrates at most once.
func (q *wheel) advanceTo(slot int64) {
	q.startSlot = slot
	for len(q.overflow) > 0 && (q.overflow[0].atNS>>slotBits)-slot < wheelSlots {
		q.push(evPop(&q.overflow))
	}
}
