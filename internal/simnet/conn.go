package simnet

import (
	"io"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// pipe is one direction of a stream connection: bytes in flight toward, or
// buffered at, the endpoint on host dst, port port. Two live in every
// connPair, so the struct is kept compact: virtual times are int64
// nanoseconds since sim.Epoch (a third the size of time.Time), cursors and
// the port are int32, and the two ways of reading — a parked task or an
// armed callback, never both — share one field.
type pipe struct {
	dst *Host

	segs   [][]byte // delivered, unread segments; a ring over one backing array
	head   int32    // index of the first unread segment
	off    int32    // read offset into segs[head]
	port   int32    // local port of the endpoint this pipe feeds
	eof    bool     // write end closed and EOF delivered
	frozen bool     // blackholed: drop deliveries, never notify readers
	reset  bool     // connection reset: reads fail with transport.ErrClosed

	reader        any   // parked reader (*sim.Waiter) or armed llenc.Readable, if any
	lastDeliverNS int64 // FIFO floor for future deliveries, ns since Epoch
}

// deliverTime applies the pipe's FIFO floor to a delivery instant (ns since
// sim.Epoch): nothing is delivered before what was sent ahead of it.
func (p *pipe) deliverTime(ns int64) int64 {
	ns = max(ns, p.lastDeliverNS)
	p.lastDeliverNS = ns
	return ns
}

func (p *pipe) deliverData(data []byte) {
	if p.eof || p.reset || p.frozen {
		p.dst.np().putBuf(data) // dropped: the payload buffer is free again
		return
	}
	if int(p.head) == len(p.segs) {
		// Everything delivered so far was consumed: rewind onto the
		// same backing array instead of appending forever.
		p.segs = p.segs[:0]
		p.head = 0
	}
	p.segs = append(p.segs, data)
	p.wakeReader()
}

// unread reports whether the pipe holds delivered, unconsumed segments.
func (p *pipe) unread() bool { return int(p.head) < len(p.segs) }

func (p *pipe) deliverEOF() {
	if p.eof || p.reset || p.frozen {
		return
	}
	p.eof = true
	p.wakeReader()
}

// fail resets the pipe: its reader observes transport.ErrClosed, the only
// error a stream connection ends with.
func (p *pipe) fail() {
	if p.reset {
		return
	}
	p.reset = true
	p.wakeReader()
}

// wakeReader wakes whichever reader is attached: a parked task's waiter,
// or an armed event-driven callback. Both paths cost exactly one kernel
// event (one alloc + one push at the current instant), so swapping a
// task-based reader for an event-driven one cannot move any simulation
// schedule — the pinned golden event orders see the same sequence
// numbers either way.
func (p *pipe) wakeReader() {
	switch r := p.reader.(type) {
	case nil: // nobody is reading
	case *sim.Waiter:
		p.reader = nil
		r.Wake(nil)
	default:
		p.reader = nil
		p.dst.wakeReadable(r.(llenc.Readable))
	}
}

// conn is one endpoint of a simulated stream connection. Like pipe it is
// population-scaled, so it stores only what is its own — everything else
// follows from its pair and side: its host is the destination of the pipe
// flowing toward it, its peer's the other pipe's, and the ports ride the
// pipes too. Endpoint addresses are derived on the rare
// LocalAddr/RemoteAddr call, and the read deadline is int64 nanoseconds.
type conn struct {
	pair       *connPair
	seq        int   // creation order; fault-plane resets replay in seq order
	deadlineNS int64 // read deadline, ns since Epoch; 0 = none
	side       uint8 // this endpoint is pair.ends[side]; pair.pipes[side] flows toward it
	closed     bool
}

var (
	_ transport.Conn          = (*conn)(nil)
	_ transport.EventConn     = (*conn)(nil)
	_ transport.EventListener = (*listener)(nil)
)

// connPair is the whole state of one stream connection — both endpoints
// and both directions — as a single heap object, sized to fill its
// allocation class exactly. Nothing pools or recycles it: a pair stays
// reachable through its hosts' tables while an endpoint is open, through
// whoever holds an endpoint, and through any scheduled delivery or
// cross-partition post that names one of its pipes; once both endpoints
// are closed and the last such event has fired, the collector reclaims
// the pair together with its segs arrays and unread payload. A closed
// connection therefore costs nothing, and no kernel event can ever
// observe a reused pipe.
type connPair struct {
	ends  [2]conn // the dialer's endpoint, then the acceptor's
	pipes [2]pipe // pipes[s] carries data toward ends[s]
}

// rd is the pipe data flows toward this endpoint on; wr the one it writes.
func (c *conn) rd() *pipe { return &c.pair.pipes[c.side] }
func (c *conn) wr() *pipe { return &c.pair.pipes[c.side^1] }

// host is the endpoint's own host; peer the other end's.
func (c *conn) host() *Host { return c.rd().dst }
func (c *conn) peer() *Host { return c.wr().dst }

// newConnPair wires two endpoints together and registers them with their
// hosts so machine failures can reset them. It always runs on the accepting
// host's partition, whose connSeq stamps the pair. Seqs are strided by the
// partition count so they stay globally unique and deterministic (and
// reduce to the old dense numbering on single-kernel networks). When the
// dialer lives on another partition, its endpoint is registered by the dial
// verdict over there — host tables are only ever touched by their owning
// partition.
func newConnPair(lh *Host, lport int, rh *Host, rport int) (*conn, *conn) {
	nw := lh.nw
	pt := rh.np()
	pair := new(connPair)
	pair.pipes[0].dst, pair.pipes[0].port = lh, int32(lport)
	pair.pipes[1].dst, pair.pipes[1].port = rh, int32(rport)
	cl, cr := &pair.ends[0], &pair.ends[1]
	cl.pair, cr.pair, cr.side = pair, pair, 1
	parts := len(nw.parts)
	base := pt.connSeq
	pt.connSeq += 2
	cl.seq = base*parts + rh.part
	cr.seq = (base+1)*parts + rh.part
	rh.addConn(cr)
	if lh.part == rh.part {
		lh.addConn(cl)
	}
	return cl, cr
}

func (c *conn) LocalAddr() transport.Addr {
	return transport.Addr{Host: c.host().Host(), Port: int(c.rd().port)}
}
func (c *conn) RemoteAddr() transport.Addr {
	return transport.Addr{Host: c.peer().Host(), Port: int(c.wr().port)}
}

// SetReadDeadline implements transport.Conn. The deadline applies to Read
// calls made after it is set.
func (c *conn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.deadlineNS = 0
		return nil
	}
	c.deadlineNS = int64(t.Sub(sim.Epoch))
	return nil
}

// Read implements transport.Conn. It blocks in virtual time until data,
// EOF, reset, or the read deadline.
func (c *conn) Read(b []byte) (int, error) {
	rd, h := c.rd(), c.host()
	k := h.kern()
	for {
		if n, ok := rd.consume(h, b); ok {
			return n, nil
		}
		if rd.reset || c.closed {
			return 0, transport.ErrClosed
		}
		if rd.eof {
			return 0, io.EOF
		}
		if c.deadlineNS != 0 && int64(k.Since()) >= c.deadlineNS {
			return 0, transport.ErrTimeout
		}
		w := k.NewWaiter()
		if c.deadlineNS != 0 {
			w.WakeAfter(time.Duration(c.deadlineNS-int64(k.Since())), transport.ErrTimeout)
		}
		if rd.reader != nil {
			// A second concurrent reader is a protocol bug; fail loudly
			// rather than corrupting the stream.
			panic("simnet: concurrent Read on one connection")
		}
		rd.reader = w
		if v := w.Wait(); v != nil {
			rd.reader = nil
			if err, ok := v.(error); ok {
				return 0, err
			}
		}
	}
}

// consume copies buffered data into b, recycling each fully read segment
// into h's partition pool; false means nothing was buffered.
func (p *pipe) consume(h *Host, b []byte) (int, bool) {
	if !p.unread() {
		return 0, false
	}
	seg := p.segs[p.head]
	n := copy(b, seg[p.off:])
	p.off += int32(n)
	if int(p.off) == len(seg) {
		p.segs[p.head] = nil
		p.head++
		p.off = 0
		h.np().putBuf(seg) // fully consumed: recycle the payload
	}
	return n, true
}

// TryRead implements transport.EventConn: it copies buffered data like
// Read but never parks, returning (0, nil) when nothing is available.
// The branch order mirrors Read exactly — data first, then reset,
// closed, EOF — so an event-driven reader observes the same verdicts in
// the same order a task-based one would.
func (c *conn) TryRead(b []byte) (int, error) {
	rd := c.rd()
	if n, ok := rd.consume(c.host(), b); ok {
		return n, nil
	}
	if rd.reset || c.closed {
		return 0, transport.ErrClosed
	}
	if rd.eof {
		return 0, io.EOF
	}
	return 0, nil
}

// OnReadable implements transport.EventConn: it arms r, whose Readable
// runs as one kernel event when the connection next has data, EOF, or an
// error. Arming while a task reader is parked (or vice versa) is a
// protocol bug, like two concurrent Reads.
func (c *conn) OnReadable(r llenc.Readable) {
	rd := c.rd()
	if rd.reader != nil {
		panic("simnet: concurrent readers on one connection")
	}
	rd.reader = r
}

// Write implements transport.Conn. The calling task blocks (in virtual
// time) until the sender's uplink has serialized the payload, modelling a
// small socket buffer; the payload is delivered to the peer after queueing
// plus propagation delay.
func (c *conn) Write(b []byte) (int, error) {
	h := c.host()
	k := h.kern()
	if c.closed || c.rd().reset {
		return 0, transport.ErrClosed
	}
	if len(b) == 0 {
		return 0, nil
	}
	np := h.np()
	np.stats.StreamMsgs++
	np.stats.StreamBytes += uint64(len(b))

	data := np.getBuf(len(b))
	copy(data, b)
	// Sender half of the fluid model here; the receiver half (downlink
	// queueing, FIFO floor) runs on the peer's partition at arrival.
	nw := h.nw
	senderFree := nw.upTimes(h, len(data))
	nw.sendData(h, c.wr(), data, senderFree+int64(nw.delay(np, h.id, c.peer().id)))

	if wait := time.Duration(senderFree - int64(k.Since())); wait > 0 {
		k.Sleep(wait)
	}
	if c.closed || c.rd().reset {
		return 0, transport.ErrClosed
	}
	return len(b), nil
}

// Close implements transport.Conn. The peer observes EOF after its data in
// flight has drained.
func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	h := c.host()
	h.removeConn(c)
	// The FIFO floor against in-flight data is applied on the peer's
	// partition when the EOF arrives, not here.
	nw := h.nw
	nw.sendEOF(h, c.wr(), int64(h.kern().Since()+nw.delay(h.np(), h.id, c.peer().id)))
	// Wake a parked local reader; it will observe closed.
	c.rd().wakeReader()
	return nil
}

// reset tears the connection down abruptly (the behaviour of a peer
// process being killed): this endpoint observes the error immediately, the
// peer one one-way delay later, like any other message from here (cold
// path, so the closure is fine).
func (c *conn) reset() {
	c.closed = true
	h, peer := c.host(), c.peer()
	h.removeConn(c)
	c.rd().fail()
	nw, wr := h.nw, c.wr()
	nw.post(h, peer, int64(h.kern().Since()+nw.delay(h.np(), h.id, peer.id)), wr.fail)
}

// freeze blackholes the connection: the local (dying) endpoint errors,
// but the remote peer observes nothing — its writes vanish and its reads
// block until a deadline fires (silent-failure mode).
func (c *conn) freeze() {
	c.closed = true
	c.host().removeConn(c)
	rd := c.rd()
	rd.frozen = true
	c.wr().frozen = true
	// Wake a parked local reader; it observes the closed connection. An
	// event-driven reader is armed only when its buffer is dry, so the
	// callback observes the same ErrClosed verdict the waiter value
	// delivers here.
	if w, ok := rd.reader.(*sim.Waiter); ok {
		rd.reader = nil
		w.Wake(transport.ErrClosed)
	} else {
		rd.wakeReader()
	}
}

// listener implements transport.Listener.
type listener struct {
	host    *Host
	port    int
	backlog []*conn
	waiters []sim.WaiterRef
	onAcc   func() // armed event-driven acceptor (EventListener), if any
	closed  bool
}

var _ transport.Listener = (*listener)(nil)

func (l *listener) Addr() transport.Addr {
	return transport.Addr{Host: l.host.Host(), Port: l.port}
}

// deliver hands an incoming connection to a parked acceptor or queues it.
func (l *listener) deliver(c *conn) {
	if l.closed {
		c.reset()
		return
	}
	for len(l.waiters) > 0 {
		r := l.waiters[0]
		l.waiters[0] = sim.WaiterRef{}
		l.waiters = l.waiters[1:]
		if r.Wake(c) {
			return
		}
	}
	l.backlog = append(l.backlog, c)
	if l.onAcc != nil {
		// One kernel event, exactly like the waiter Wake above, so
		// event-driven and task-based acceptors are schedule-identical.
		cb := l.onAcc
		l.onAcc = nil
		l.host.kern().AfterFunc(0, cb)
	}
}

// TryAccept implements transport.EventListener: it pops a queued
// connection without parking, returning (nil, nil) when none is waiting.
func (l *listener) TryAccept() (transport.Conn, error) {
	if l.closed {
		return nil, transport.ErrClosed
	}
	if len(l.backlog) > 0 {
		return l.popBacklog(), nil
	}
	return nil, nil
}

// popBacklog dequeues the oldest queued connection, copying the rest down
// so later arrivals reuse the backing array, and clears the vacated slot,
// where a stale pointer would pin a whole closed connPair.
func (l *listener) popBacklog() *conn {
	c := l.backlog[0]
	n := copy(l.backlog, l.backlog[1:])
	l.backlog[n] = nil
	l.backlog = l.backlog[:n]
	return c
}

// OnAcceptable implements transport.EventListener: cb runs as one kernel
// event when the next connection arrives or the listener closes.
func (l *listener) OnAcceptable(cb func()) {
	l.onAcc = cb
}

// Accept implements transport.Listener.
func (l *listener) Accept() (transport.Conn, error) {
	for {
		if l.closed {
			return nil, transport.ErrClosed
		}
		if len(l.backlog) > 0 {
			return l.popBacklog(), nil
		}
		w := l.host.kern().NewWaiter()
		l.waiters = append(l.waiters, w.Ref())
		switch v := w.Wait().(type) {
		case *conn:
			return v, nil
		case error:
			return nil, v
		}
	}
}

// Close implements transport.Listener.
func (l *listener) Close() error {
	if l.closed {
		return nil
	}
	l.close()
	l.host.removeListener(l)
	return nil
}

func (l *listener) close() {
	l.closed = true
	for _, r := range l.waiters {
		r.Wake(transport.ErrClosed)
	}
	l.waiters = nil
	if l.onAcc != nil {
		// The event-driven acceptor learns of the close the same way a
		// parked one does: one wake, then TryAccept reports ErrClosed.
		cb := l.onAcc
		l.onAcc = nil
		l.host.kern().AfterFunc(0, cb)
	}
	for _, c := range l.backlog {
		c.reset()
	}
	l.backlog = nil
}
