package simnet

import (
	"io"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// pipe is one direction of a stream connection: bytes in flight toward, or
// buffered at, the destination host. Two live in every connPair, so the
// struct is kept compact: virtual times are int64 nanoseconds since
// sim.Epoch (a third the size of time.Time) and cursors are int32.
type pipe struct {
	dst *Host

	segs   [][]byte // delivered, unread segments; a ring over one backing array
	head   int32    // index of the first unread segment
	off    int32    // read offset into segs[head]
	eof    bool     // write end closed and EOF delivered
	frozen bool     // blackholed: drop deliveries, never notify readers
	err    error    // connection reset

	reader        *sim.Waiter // parked reader, if any
	onReadable    func()      // armed event-driven reader (EventConn), if any
	lastDeliverNS int64       // FIFO floor for future deliveries, ns since Epoch
}

func (p *pipe) deliverTime(t time.Time) time.Time {
	ns := int64(t.Sub(sim.Epoch))
	if ns < p.lastDeliverNS {
		ns = p.lastDeliverNS
		t = sim.Epoch.Add(time.Duration(ns))
	}
	p.lastDeliverNS = ns
	return t
}

func (p *pipe) deliverData(data []byte) {
	if p.eof || p.err != nil || p.frozen {
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
	if p.eof || p.err != nil || p.frozen {
		return
	}
	p.eof = true
	p.wakeReader()
}

func (p *pipe) fail(err error) {
	if p.err != nil {
		return
	}
	p.err = err
	p.wakeReader()
}

// wakeReader wakes whichever reader is attached: a parked task's waiter,
// or an armed event-driven callback. Both paths cost exactly one kernel
// event (one alloc + one push at the current instant), so swapping a
// task-based reader for an event-driven one cannot move any simulation
// schedule — the pinned golden event orders see the same sequence
// numbers either way.
func (p *pipe) wakeReader() {
	if p.reader != nil {
		w := p.reader
		p.reader = nil
		w.Wake(nil)
		return
	}
	if p.onReadable != nil {
		cb := p.onReadable
		p.onReadable = nil
		p.dst.kern().AfterFunc(0, cb)
	}
}

// conn is one endpoint of a simulated stream connection. Like pipe it is
// population-scaled, so only ports are stored — the endpoint addresses are
// derived from the host pointers on the rare LocalAddr/RemoteAddr call —
// and the read deadline is int64 nanoseconds.
type conn struct {
	h        *Host
	peerHost *Host

	rd *pipe // data flowing toward us
	wr *pipe // data flowing toward the peer

	seq        int   // creation order; fault-plane resets replay in seq order
	lport      int32 // local port
	rport      int32 // remote port
	closed     bool
	deadlineNS int64 // read deadline, ns since Epoch; 0 = none
}

var (
	_ transport.Conn          = (*conn)(nil)
	_ transport.EventConn     = (*conn)(nil)
	_ transport.EventListener = (*listener)(nil)
)

// connPair is the whole state of one stream connection — both endpoints
// and both directions — as a single heap object. Nothing pools or recycles
// it: a pair stays reachable through its hosts' tables while an endpoint is
// open, through whoever holds an endpoint, and through any scheduled
// delivery or cross-partition post that names one of its pipes; once both
// endpoints are closed and the last such event has fired, the collector
// reclaims the pair together with its segs arrays and unread payload. A
// closed connection therefore costs nothing, and no kernel event can ever
// observe a reused pipe.
type connPair struct {
	cl, cr            conn
	toRemote, toLocal pipe
}

// newConnPair wires two endpoints together and registers them with their
// hosts so machine failures can reset them. It always runs on the accepting
// host's partition, whose connSeq stamps the pair. Seqs are strided by the
// partition count so they stay globally unique and deterministic (and
// reduce to the old dense numbering on single-kernel networks). When the
// dialer lives on another partition, its endpoint is registered by the dial
// verdict over there — host tables are only ever touched by their owning
// partition.
func newConnPair(lh *Host, laddr transport.Addr, rh *Host, raddr transport.Addr) (*conn, *conn) {
	nw := lh.nw
	pt := rh.np()
	pair := new(connPair)
	toRemote, toLocal := &pair.toRemote, &pair.toLocal
	toRemote.dst = rh
	toLocal.dst = lh
	cl, cr := &pair.cl, &pair.cr
	cl.h, cl.peerHost, cl.rd, cl.wr = lh, rh, toLocal, toRemote
	cl.lport, cl.rport = int32(laddr.Port), int32(raddr.Port)
	cr.h, cr.peerHost, cr.rd, cr.wr = rh, lh, toRemote, toLocal
	cr.lport, cr.rport = int32(raddr.Port), int32(laddr.Port)
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
	return transport.Addr{Host: c.h.Host(), Port: int(c.lport)}
}
func (c *conn) RemoteAddr() transport.Addr {
	return transport.Addr{Host: c.peerHost.Host(), Port: int(c.rport)}
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
	k := c.h.kern()
	for {
		if c.rd.unread() {
			seg := c.rd.segs[c.rd.head]
			n := copy(b, seg[c.rd.off:])
			c.rd.off += int32(n)
			if int(c.rd.off) == len(seg) {
				c.rd.segs[c.rd.head] = nil
				c.rd.head++
				c.rd.off = 0
				c.h.np().putBuf(seg) // fully consumed: recycle the payload
			}
			return n, nil
		}
		if c.rd.err != nil {
			return 0, c.rd.err
		}
		if c.closed {
			return 0, transport.ErrClosed
		}
		if c.rd.eof {
			return 0, io.EOF
		}
		if c.deadlineNS != 0 && int64(k.Since()) >= c.deadlineNS {
			return 0, transport.ErrTimeout
		}
		w := k.NewWaiter()
		if c.deadlineNS != 0 {
			w.WakeAfter(time.Duration(c.deadlineNS-int64(k.Since())), transport.ErrTimeout)
		}
		if c.rd.reader != nil {
			// A second concurrent reader is a protocol bug; fail loudly
			// rather than corrupting the stream.
			panic("simnet: concurrent Read on one connection")
		}
		c.rd.reader = w
		if v := w.Wait(); v != nil {
			c.rd.reader = nil
			if err, ok := v.(error); ok {
				return 0, err
			}
		}
	}
}

// TryRead implements transport.EventConn: it copies buffered data like
// Read but never parks, returning (0, nil) when nothing is available.
// The branch order mirrors Read exactly — data first, then reset,
// closed, EOF — so an event-driven reader observes the same verdicts in
// the same order a task-based one would.
func (c *conn) TryRead(b []byte) (int, error) {
	if c.rd.unread() {
		seg := c.rd.segs[c.rd.head]
		n := copy(b, seg[c.rd.off:])
		c.rd.off += int32(n)
		if int(c.rd.off) == len(seg) {
			c.rd.segs[c.rd.head] = nil
			c.rd.head++
			c.rd.off = 0
			c.h.np().putBuf(seg) // fully consumed: recycle the payload
		}
		return n, nil
	}
	if c.rd.err != nil {
		return 0, c.rd.err
	}
	if c.closed {
		return 0, transport.ErrClosed
	}
	if c.rd.eof {
		return 0, io.EOF
	}
	return 0, nil
}

// OnReadable implements transport.EventConn: it arms cb to run as one
// kernel event when the connection next has data, EOF, or an error.
// Arming while a task reader is parked (or vice versa) is a protocol
// bug, like two concurrent Reads.
func (c *conn) OnReadable(cb func()) {
	if c.rd.reader != nil || c.rd.onReadable != nil {
		panic("simnet: concurrent readers on one connection")
	}
	c.rd.onReadable = cb
}

// Write implements transport.Conn. The calling task blocks (in virtual
// time) until the sender's uplink has serialized the payload, modelling a
// small socket buffer; the payload is delivered to the peer after queueing
// plus propagation delay.
func (c *conn) Write(b []byte) (int, error) {
	k := c.h.kern()
	if c.closed {
		return 0, transport.ErrClosed
	}
	if c.rd.err != nil {
		return 0, c.rd.err
	}
	if len(b) == 0 {
		return 0, nil
	}
	np := c.h.np()
	np.stats.StreamMsgs++
	np.stats.StreamBytes += uint64(len(b))
	c.h.nw.ins.StreamMsgs.Inc()
	c.h.nw.ins.StreamBytes.Add(uint64(len(b)))

	data := np.getBuf(len(b))
	copy(data, b)
	var senderFree time.Time
	if c.h.nw.cross(c.h, c.peerHost) {
		// Sender half of the fluid model here; the receiver half (downlink
		// queueing, FIFO floor) runs on the peer's partition at arrival.
		senderFree = c.h.nw.upTimes(c.h, len(data))
		arrive := senderFree.Add(c.h.nw.delay(c.h.id, c.peerHost.id))
		c.h.nw.postData(c.h, c.wr, data, arrive)
	} else {
		var delivered time.Time
		senderFree, delivered = c.h.nw.sendTimes(c.h, c.peerHost, len(data))
		delivered = c.wr.deliverTime(delivered)
		c.h.nw.scheduleData(delivered, c.wr, data)
	}

	if wait := senderFree.Sub(k.Now()); wait > 0 {
		k.Sleep(wait)
	}
	if c.closed {
		return 0, transport.ErrClosed
	}
	if c.rd.err != nil {
		return 0, c.rd.err
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
	c.h.removeConn(c)
	k := c.h.kern()
	arrive := k.Now().Add(c.h.nw.delay(c.h.id, c.peerHost.id))
	if c.h.nw.cross(c.h, c.peerHost) {
		// The FIFO floor against in-flight data is applied on the peer's
		// partition when the EOF arrives, not here.
		c.h.nw.postEOF(c.h, c.wr, arrive)
	} else {
		c.h.nw.scheduleEOF(c.wr.deliverTime(arrive), c.wr)
	}
	// Wake a parked local reader; it will observe closed.
	c.rd.wakeReader()
	return nil
}

// reset tears the connection down abruptly: both endpoints observe errors
// immediately (the behaviour of a peer process being killed).
func (c *conn) reset() {
	c.closed = true
	c.h.removeConn(c)
	c.rd.fail(transport.ErrClosed)
	if c.h.nw.cross(c.h, c.peerHost) {
		// The peer's pipe state belongs to its partition; the reset
		// travels like any other message (cold path, closure is fine).
		nw := c.h.nw
		wr := c.wr
		arrive := c.h.kern().Now().Add(nw.delay(c.h.id, c.peerHost.id))
		nw.pk.Post(c.h.part, c.peerHost.part, int64(arrive.Sub(sim.Epoch)), func() {
			wr.fail(transport.ErrClosed)
		})
		return
	}
	c.wr.fail(transport.ErrClosed)
}

// freeze blackholes the connection: the local (dying) endpoint errors,
// but the remote peer observes nothing — its writes vanish and its reads
// block until a deadline fires (silent-failure mode).
func (c *conn) freeze() {
	c.closed = true
	c.h.removeConn(c)
	c.rd.frozen = true
	c.wr.frozen = true
	// Wake a parked local reader; it observes the closed connection. An
	// event-driven reader is armed only when its buffer is dry, so the
	// callback observes the same ErrClosed verdict the waiter value
	// delivers here.
	if w := c.rd.reader; w != nil {
		c.rd.reader = nil
		w.Wake(transport.ErrClosed)
	} else {
		c.rd.wakeReader()
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

// popBacklog dequeues the oldest queued connection, clearing the vacated
// slot: the backing array outlives the pop, and a stale pointer there would
// pin a whole closed connPair until the array happened to reallocate.
func (l *listener) popBacklog() *conn {
	c := l.backlog[0]
	l.backlog[0] = nil
	l.backlog = l.backlog[1:]
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
