package simnet

import (
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// delivery is a pooled, reusable scheduled message. The per-partition free
// list plus the one closure created per pooled object (d.run, capturing only
// d) make the message hot path — stream writes, EOFs and datagrams —
// allocation-free in steady state apart from the payload copy itself.
//
// A delivery fires in one of two shapes. Intra-partition messages are
// scheduled directly at their delivery instant with a terminal kind
// (dlvData, dlvEOF, dlvDgram): fire delivers and recycles. Cross-partition
// messages carry a staged kind (dlvXData, dlvXEOF, dlvXDgram) and are
// posted to the destination partition at their *arrival* instant — the
// moment the payload reaches the receiver's access link. Firing a staged
// kind runs the receiver half of the fluid model (downlink queueing,
// processing delay, pipe FIFO floor) on the destination's own state, then
// reschedules the same object under the terminal kind. The split keeps
// every mutation of host state on the partition that owns the host.
type delivery struct {
	nw  *Network
	run func() // scheduled on the kernel; created once per pooled object

	kind uint8
	pipe *pipe  // dlvData, dlvEOF
	data []byte // dlvData, dlvDgram payload
	to   *Host  // dlvDgram destination host
	port int    // dlvDgram destination port
	from transport.Addr
}

const (
	dlvData uint8 = iota
	dlvEOF
	dlvDgram
	dlvXData  // cross-partition stage 1: data arriving at receiver's link
	dlvXEOF   // cross-partition stage 1: EOF arriving
	dlvXDgram // cross-partition stage 1: datagram arriving
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
	// Staged cross-partition kinds: run the receiver half of the fluid
	// model now, on the destination partition at arrival time, and
	// reschedule this same object as its terminal kind. No recycling yet.
	switch d.kind {
	case dlvXData:
		k := d.pipe.dst.kern()
		at := d.pipe.deliverTime(d.nw.recvTimes(d.pipe.dst, k.Now(), len(d.data)))
		d.kind = dlvData
		k.AtFunc(at, d.run)
		return
	case dlvXEOF:
		k := d.pipe.dst.kern()
		at := d.pipe.deliverTime(k.Now())
		d.kind = dlvEOF
		k.AtFunc(at, d.run)
		return
	case dlvXDgram:
		k := d.to.kern()
		at := d.nw.recvTimes(d.to, k.Now(), len(d.data))
		d.kind = dlvDgram
		k.AtFunc(at, d.run)
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

// scheduleData delivers data into p at virtual time at. Same-partition
// only: at is the full fluid-model delivery instant.
func (nw *Network) scheduleData(at time.Time, p *pipe, data []byte) {
	d := p.dst.np().newDelivery(nw)
	d.kind = dlvData
	d.pipe = p
	d.data = data
	p.dst.kern().AtFunc(at, d.run)
}

// scheduleEOF delivers EOF into p at virtual time at. Same-partition only.
func (nw *Network) scheduleEOF(at time.Time, p *pipe) {
	d := p.dst.np().newDelivery(nw)
	d.kind = dlvEOF
	d.pipe = p
	p.dst.kern().AtFunc(at, d.run)
}

// scheduleDgram delivers a datagram to (to, port) at virtual time at.
// Same-partition only.
func (nw *Network) scheduleDgram(at time.Time, to *Host, port int, data []byte, from transport.Addr) {
	d := to.np().newDelivery(nw)
	d.kind = dlvDgram
	d.to = to
	d.port = port
	d.data = data
	d.from = from
	to.kern().AtFunc(at, d.run)
}

// postData ships data from host `from` into pipe p (owned by another
// partition), arriving at the receiver's link at virtual time arrive. The
// staged delivery crosses at the ParKernel barrier; receiver-side queueing
// happens on arrival.
func (nw *Network) postData(from *Host, p *pipe, data []byte, arrive time.Time) {
	d := from.np().newDelivery(nw)
	d.kind = dlvXData
	d.pipe = p
	d.data = data
	nw.pk.Post(from.part, p.dst.part, int64(arrive.Sub(sim.Epoch)), d.run)
}

// postEOF ships a stream EOF across partitions, arriving at arrive.
func (nw *Network) postEOF(from *Host, p *pipe, arrive time.Time) {
	d := from.np().newDelivery(nw)
	d.kind = dlvXEOF
	d.pipe = p
	nw.pk.Post(from.part, p.dst.part, int64(arrive.Sub(sim.Epoch)), d.run)
}

// postDgram ships a datagram across partitions, arriving at arrive.
func (nw *Network) postDgram(from, to *Host, port int, data []byte, fromAddr transport.Addr, arrive time.Time) {
	d := from.np().newDelivery(nw)
	d.kind = dlvXDgram
	d.to = to
	d.port = port
	d.data = data
	d.from = fromAddr
	nw.pk.Post(from.part, to.part, int64(arrive.Sub(sim.Epoch)), d.run)
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
