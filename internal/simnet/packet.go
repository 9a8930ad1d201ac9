package simnet

import (
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// MaxDatagram is the largest datagram payload the simulated network
// forwards, matching a typical UDP limit.
const MaxDatagram = 64 * 1024

type dgram struct {
	data []byte
	from transport.Addr
}

// packetConn implements transport.PacketConn over the simulated network.
type packetConn struct {
	host     *Host
	port     int
	queue    []dgram
	waiters  []sim.WaiterRef // refs: entries stale after a deadline wake are inert
	closed   bool
	deadline time.Time
}

var _ transport.PacketConn = (*packetConn)(nil)

func (p *packetConn) Addr() transport.Addr {
	return transport.Addr{Host: p.host.Host(), Port: p.port}
}

// SetReadDeadline implements transport.PacketConn.
func (p *packetConn) SetReadDeadline(t time.Time) error {
	p.deadline = t
	return nil
}

// WriteTo implements transport.PacketConn. Datagrams traverse the same
// fluid bandwidth queues as streams but the sender never blocks; loss is
// sampled from the link model.
func (p *packetConn) WriteTo(b []byte, to transport.Addr) (int, error) {
	if p.closed || p.host.down {
		return 0, transport.ErrClosed
	}
	if len(b) > MaxDatagram {
		return 0, fmt.Errorf("simnet: datagram of %d bytes exceeds %d", len(b), MaxDatagram)
	}
	nw := p.host.nw
	remote, err := nw.hostByName(to.Host)
	if err != nil {
		return 0, err
	}
	np := p.host.np()
	np.stats.Datagrams++
	if loss := nw.model.Loss(p.host.id, remote.id); loss > 0 && p.host.loss.Float64() < loss {
		np.stats.DroppedDgrams++
		return len(b), nil
	}
	// Fault-plane drops: a partition blackholes crossing datagrams without
	// a draw; degradation adds loss sampled only while active, so the
	// sender's loss stream with no plan armed is untouched.
	if f := &np.faults; f.cut(p.host.id, remote.id) ||
		f.degraded && f.degLoss > 0 && f.degApplies(p.host.id, remote.id) && p.host.loss.Float64() < f.degLoss {
		np.stats.DroppedDgrams++
		return len(b), nil
	}
	data := np.getBuf(len(b))
	copy(data, b)
	senderFree := nw.upTimes(p.host, len(data))
	nw.sendDgram(p.host, remote, to.Port, data, p.Addr(), senderFree+int64(nw.delay(np, p.host.id, remote.id)))
	return len(b), nil
}

func (p *packetConn) deliver(d dgram) {
	for len(p.waiters) > 0 {
		r := p.waiters[0]
		p.waiters = p.waiters[1:]
		// Stale refs (readers that timed out and moved on) wake nothing
		// and are simply discarded.
		if r.Wake(d) {
			return
		}
	}
	p.queue = append(p.queue, d)
}

// ReadFrom implements transport.PacketConn.
func (p *packetConn) ReadFrom(b []byte) (int, transport.Addr, error) {
	k := p.host.kern()
	for {
		if p.closed {
			return 0, transport.Addr{}, transport.ErrClosed
		}
		if len(p.queue) > 0 {
			d := p.queue[0]
			p.queue[0] = dgram{}
			p.queue = p.queue[1:]
			n := copy(b, d.data)
			p.host.np().putBuf(d.data) // copied out: recycle the payload
			return n, d.from, nil
		}
		if !p.deadline.IsZero() && !k.Now().Before(p.deadline) {
			return 0, transport.Addr{}, transport.ErrTimeout
		}
		w := k.NewWaiter()
		if !p.deadline.IsZero() {
			w.WakeAfter(p.deadline.Sub(k.Now()), transport.ErrTimeout)
		}
		p.waiters = append(p.waiters, w.Ref())
		switch v := w.Wait().(type) {
		case dgram:
			n := copy(b, v.data)
			p.host.np().putBuf(v.data)
			return n, v.from, nil
		case error:
			// Our entry in p.waiters is now a stale ref; deliver and
			// close discard it harmlessly.
			return 0, transport.Addr{}, v
		}
	}
}

// Close implements transport.PacketConn.
func (p *packetConn) Close() error {
	if p.closed {
		return nil
	}
	p.close()
	p.host.removePacket(p)
	return nil
}

func (p *packetConn) close() {
	p.closed = true
	for _, r := range p.waiters {
		r.Wake(transport.ErrClosed)
	}
	p.waiters = nil
	for _, d := range p.queue {
		p.host.np().putBuf(d.data)
	}
	p.queue = nil
}
