package simnet

import (
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// delivery is a pooled, reusable scheduled message. The per-partition free
// list plus the one closure created per pooled object (d.run, capturing only
// d) make the message hot path — stream writes, EOFs and datagrams —
// allocation-free in steady state apart from the payload copy itself.
//
// A delivery fires twice. The sender posts it to the receiver's partition
// at its *arrival* instant — the moment the payload reaches the receiver's
// access link — under an arriving kind (arriveData, arriveEOF,
// arriveDgram). Firing an arriving kind runs the receiver half of the fluid
// model (downlink queueing, processing delay, pipe FIFO floor) on the
// receiver's own state, then reschedules the same object under the
// terminal kind (dlvData, dlvEOF, dlvDgram), whose firing delivers and
// recycles. Every message takes this path, whichever partitions its ends
// live on, so a receiver's downlink serves messages in arrival order and
// every mutation of host state happens on the partition that owns the host.
type delivery struct {
	nw  *Network
	run func() // scheduled on the kernel; created once per pooled object

	kind uint8
	pipe *pipe          // dlvData, dlvEOF
	data []byte         // dlvData, dlvDgram payload
	to   *Host          // dlvDgram destination host; dlvReadable reader's host
	port int            // dlvDgram destination port
	rd   llenc.Readable // dlvReadable: the woken event-driven reader
	from transport.Addr
}

const (
	dlvData uint8 = iota
	dlvEOF
	dlvDgram
	dlvReadable // an armed reader's wake: no payload, no arriving half
	arriveData  // data arriving at the receiver's link
	arriveEOF   // EOF arriving
	arriveDgram // datagram arriving
)

// newDelivery allocates from this partition's pool. Deliveries recycle into
// the pool of the partition whose kernel fired them — the destination — so
// a steady cross-partition flow drains one pool and feeds the other, and a
// one-way stream (metric reports to the monitoring host) would do so
// without bound; balancePools levels the pools at every barrier.
func (pt *netPart) newDelivery(nw *Network) *delivery {
	if l := len(pt.freeDlv); l > 0 {
		d := pt.freeDlv[l-1]
		pt.freeDlv[l-1] = nil
		pt.freeDlv = pt.freeDlv[:l-1]
		return d
	}
	d := &delivery{nw: nw}
	d.run = func() { d.fire() }
	return d
}

// fire performs the delivery and recycles the object. All conditions are
// re-checked at delivery time, exactly like the closures this replaces.
func (d *delivery) fire() {
	// Arriving kinds: run the receiver half of the fluid model now, on the
	// destination partition at arrival time, and reschedule this same object
	// as its terminal kind. No recycling yet.
	switch d.kind {
	case arriveData:
		k := d.pipe.dst.kern()
		at := d.pipe.deliverTime(d.nw.recvTimes(d.pipe.dst, int64(k.Since()), len(d.data)))
		d.kind = dlvData
		k.AtFunc(at, d.run)
		return
	case arriveEOF:
		k := d.pipe.dst.kern()
		at := d.pipe.deliverTime(int64(k.Since()))
		d.kind = dlvEOF
		k.AtFunc(at, d.run)
		return
	case arriveDgram:
		k := d.to.kern()
		at := d.nw.recvTimes(d.to, int64(k.Since()), len(d.data))
		d.kind = dlvDgram
		k.AtFunc(at, d.run)
		return
	}

	if d.kind == dlvReadable {
		// Recycled before the reader runs, so the traffic it sends can
		// reuse this very object.
		r, pt := d.rd, d.to.np()
		d.rd, d.to = nil, nil
		pt.freeDlv = append(pt.freeDlv, d)
		r.Readable()
		return
	}

	var pt *netPart
	switch d.kind {
	case dlvData:
		pt = d.pipe.dst.np()
		d.pipe.deliverData(d.data)
	case dlvEOF:
		pt = d.pipe.dst.np()
		d.pipe.deliverEOF()
	case dlvDgram:
		pt = d.to.np()
		if dst := d.to.packetOn(d.port); dst != nil && !dst.closed && !d.to.down {
			dst.deliver(dgram{data: d.data, from: d.from})
		} else {
			pt.putBuf(d.data) // dead port swallows the datagram
		}
	}
	d.pipe = nil
	d.data = nil
	d.to = nil
	d.from = transport.Addr{}
	pt.freeDlv = append(pt.freeDlv, d)
}

// wakeReadable runs r.Readable on h's kernel as one event at the current
// instant — the cost of waking a parked reader's waiter — riding a pooled
// delivery, so an armed reader is woken without allocating and without
// holding a callback of its own.
func (h *Host) wakeReadable(r llenc.Readable) {
	pt := h.np()
	d := pt.newDelivery(h.nw)
	d.kind = dlvReadable
	d.to = h
	d.rd = r
	pt.k.AfterFunc(0, d.run)
}

// sendData ships data from host from into pipe p, arriving at the
// receiver's link at virtual time arrive (ns since sim.Epoch).
func (nw *Network) sendData(from *Host, p *pipe, data []byte, arrive int64) {
	d := from.np().newDelivery(nw)
	d.kind = arriveData
	d.pipe = p
	d.data = data
	nw.post(from, p.dst, arrive, d.run)
}

// sendEOF ships a stream EOF into pipe p, arriving at arrive.
func (nw *Network) sendEOF(from *Host, p *pipe, arrive int64) {
	d := from.np().newDelivery(nw)
	d.kind = arriveEOF
	d.pipe = p
	nw.post(from, p.dst, arrive, d.run)
}

// sendDgram ships a datagram to (to, port), arriving at arrive. Delivery
// re-checks for a live destination socket; a dead port silently swallows
// the datagram, like UDP.
func (nw *Network) sendDgram(from, to *Host, port int, data []byte, fromAddr transport.Addr, arrive int64) {
	d := from.np().newDelivery(nw)
	d.kind = arriveDgram
	d.to = to
	d.port = port
	d.data = data
	d.from = fromAddr
	nw.post(from, to, arrive, d.run)
}

// poolSlack is how far above the average across partitions a free list
// may grow before balancePools moves the excess: enough to leave the small
// drift of two-way traffic alone, small next to the pools a one-way stream
// would otherwise build.
const poolSlack = 64

// balancePools levels the partitions' delivery and payload-buffer free lists
// at a lookahead barrier, while no partition runs. A one-way
// cross-partition stream thereby recycles into the sender's pools instead
// of growing the receiver's with every message, and the pools stay bounded
// by what is in flight. Free lists are invisible to every schedule, so the
// levelling is too.
func (nw *Network) balancePools() {
	levelPools(nw.parts, func(pt *netPart) *[]*delivery { return &pt.freeDlv })
	levelPools(nw.parts, func(pt *netPart) *[][]byte { return &pt.freeBuf })
}

// levelPools moves pool entries from the partitions holding more than the
// average to those holding less, once some partition holds more than the
// average plus poolSlack.
func levelPools[T any](parts []netPart, pool func(*netPart) *[]T) {
	total, most := 0, 0
	for i := range parts {
		l := len(*pool(&parts[i]))
		total, most = total+l, max(most, l)
	}
	avg := total / len(parts)
	if most <= avg+poolSlack {
		return
	}
	for i, j := 0, 0; ; {
		for i < len(parts) && len(*pool(&parts[i])) <= avg {
			i++
		}
		for j < len(parts) && len(*pool(&parts[j])) >= avg {
			j++
		}
		if i == len(parts) || j == len(parts) {
			return
		}
		src, dst := pool(&parts[i]), pool(&parts[j])
		k := len(*src) - min(len(*src)-avg, avg-len(*dst))
		*dst = append(*dst, (*src)[k:]...)
		clear((*src)[k:])
		*src = (*src)[:k]
	}
}
