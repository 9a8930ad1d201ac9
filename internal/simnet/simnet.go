// Package simnet implements SPLAY's simulated network: a virtual packet
// network running in virtual time on the discrete-event kernel.
//
// The network hosts a fixed population of hosts named "n0", "n1", …. A
// pluggable LinkModel supplies pairwise one-way delays, datagram loss
// probabilities and per-host access bandwidth (internal/topology provides
// ModelNet-style transit-stub and PlanetLab models). Transfers use a fluid,
// store-and-forward model: each write is serialized through the sender's
// uplink queue and the receiver's downlink queue, giving correct saturation
// throughput and per-block "steps" without packet-level cost.
//
// An optional processing-delay hook charges per-message CPU cost at the
// receiver; internal/hostmodel uses it to reproduce the paper's
// runtime-scalability experiments (Figs. 7 and 8).
//
// A network runs either on a single kernel (New) or partitioned across the
// sub-kernels of a sim.ParKernel (NewPartitioned): hosts are sharded
// deterministically by ID, intra-partition traffic keeps the pooled
// fast path unchanged, and cross-partition traffic rides per-source queues
// drained at the ParKernel's conservative lookahead barriers — the model's
// minimum link delay is the lookahead window. Host state (uplink/downlink
// queues, pipes, sockets) is only ever touched by the partition that owns
// the host: cross-partition sends split the fluid model in two, the sender
// charging its uplink and the receiver charging its downlink when the
// message arrives.
package simnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// LinkModel supplies link characteristics between hosts. Implementations
// must be deterministic functions of their inputs.
type LinkModel interface {
	// Delay returns the one-way propagation delay from host a to host b.
	Delay(a, b int) time.Duration
	// Loss returns the probability in [0,1] that a datagram from a to b is
	// dropped. Stream transfers are reliable regardless of Loss.
	Loss(a, b int) float64
	// UplinkBps and DownlinkBps return access bandwidth in bytes per
	// second; 0 means unlimited.
	UplinkBps(host int) float64
	DownlinkBps(host int) float64
}

// MinDelayModel is implemented by link models that can state a positive
// lower bound on the one-way delay between any two *distinct* hosts
// (self-delay may be zero — a host never crosses a kernel partition to
// reach itself). Partitioned networks require it: the bound is the
// conservative lookahead window, inside which partitions provably cannot
// influence each other.
type MinDelayModel interface {
	MinDelay() time.Duration
}

// Symmetric is a trivial LinkModel: constant delay and bandwidth between
// every pair, no loss. Useful for tests and local-cluster experiments.
type Symmetric struct {
	RTT time.Duration // round-trip time between any two hosts
	Bps float64       // per-host access bandwidth, bytes/sec (0 = unlimited)
}

// Delay returns half the configured RTT.
func (s Symmetric) Delay(a, b int) time.Duration { return s.RTT / 2 }

// MinDelay returns the one-way delay, the partitioning lookahead bound.
func (s Symmetric) MinDelay() time.Duration { return s.RTT / 2 }

// Loss always returns 0.
func (s Symmetric) Loss(a, b int) float64 { return 0 }

// UplinkBps returns the configured access bandwidth.
func (s Symmetric) UplinkBps(host int) float64 { return s.Bps }

// DownlinkBps returns the configured access bandwidth.
func (s Symmetric) DownlinkBps(host int) float64 { return s.Bps }

// ProcDelayFunc returns extra processing latency charged when a host
// receives size bytes of application data. It runs at delivery time.
type ProcDelayFunc func(host int, size int) time.Duration

// netPart is the per-partition slice of network state. Everything a message
// hot path touches — kernel, rng, delivery and payload pools, stats — lives
// here, owned exclusively by the partition's worker,
// so partitions never contend and never race. A single-kernel network is
// simply a network with one partition.
type netPart struct {
	k       *sim.Kernel
	rng     *rand.Rand
	freeDlv *delivery // pooled scheduled messages (see delivery.go)
	freeBuf [][]byte  // pooled payload buffers (see getBuf/putBuf)
	connSeq int       // conn creation stamp; see newConnPair for uniqueness
	stats   Stats

	_ [64]byte // keep neighbouring partitions off this cache line
}

func (pt *netPart) init(k *sim.Kernel, seed int64) {
	pt.k = k
	pt.rng = rand.New(rand.NewSource(seed))
}

// Network is a simulated network of hosts.
type Network struct {
	pk     *sim.ParKernel // nil on single-kernel networks
	model  LinkModel
	parts  []netPart
	slab   []Host  // all host state, one dense slab
	hosts  []*Host // stable pointers into slab
	proc   ProcDelayFunc
	silent bool // dead hosts blackhole instead of refusing

	// Fault-plane state, driven by the scenario layer's actuators (see
	// internal/faults). All zero when no fault plan is active: every hook
	// below nil-checks before doing anything, so an empty plan adds no
	// kernel events and changes no rng draws — the schedule-neutrality
	// invariant the simulation goldens pin. Fault injection requires a
	// single-partition network (see assertUnpartitioned).
	partition []bool        // partition side by host id; nil = no partition
	degHosts  []bool        // degraded hosts; nil while degraded = all hosts
	degExtra  time.Duration // added one-way delay on degraded links
	degLoss   float64       // added datagram loss on degraded links
	degraded  bool          // Degrade active (degExtra/degLoss may be 0)

	ins Instruments
}

// getBuf returns a payload buffer of length n from the partition's free
// list, growing a recycled buffer when needed. Payload copies are the
// one per-message allocation the delivery fast path cannot avoid — every
// stream write and datagram copies its bytes so the sender may reuse its
// slice — so the copies ride pooled buffers instead: recycled when the
// reader fully consumes a segment or a delivery is dropped (dead port,
// frozen pipe). See DESIGN.md for the ownership rules. Cross-partition
// payloads drain into the receiver's pool; flows balance out.
func (pt *netPart) getBuf(n int) []byte {
	if l := len(pt.freeBuf); l > 0 {
		b := pt.freeBuf[l-1]
		pt.freeBuf[l-1] = nil
		pt.freeBuf = pt.freeBuf[:l-1]
		if cap(b) < n {
			return make([]byte, n)
		}
		return b[:n]
	}
	return make([]byte, n)
}

// putBuf recycles a payload buffer. The caller must be the buffer's sole
// owner: segments go back exactly once, when consumed or dropped.
func (pt *netPart) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	pt.freeBuf = append(pt.freeBuf, b)
}

// Stats aggregates network-level counters, useful in tests and experiment
// reports.
type Stats struct {
	StreamBytes   uint64 // application bytes accepted by stream writes
	StreamMsgs    uint64 // stream write calls
	Datagrams     uint64 // datagrams sent
	DroppedDgrams uint64 // datagrams lost
	Dials         uint64
	RefusedDials  uint64
}

func (s *Stats) add(o *Stats) {
	s.StreamBytes += o.StreamBytes
	s.StreamMsgs += o.StreamMsgs
	s.Datagrams += o.Datagrams
	s.DroppedDgrams += o.DroppedDgrams
	s.Dials += o.Dials
	s.RefusedDials += o.RefusedDials
}

func newNetwork(model LinkModel, n int) *Network {
	nw := &Network{
		model: model,
		slab:  make([]Host, n),
		hosts: make([]*Host, n),
	}
	for i := range nw.slab {
		h := &nw.slab[i]
		h.nw = nw
		h.id = i
		h.nextEphem = 40000
		nw.hosts[i] = h
	}
	return nw
}

// New creates a network of n hosts over the kernel using the given link
// model. The seed makes datagram loss and ephemeral choices deterministic.
func New(k *sim.Kernel, model LinkModel, n int, seed int64) *Network {
	nw := newNetwork(model, n)
	nw.parts = make([]netPart, 1)
	nw.parts[0].init(k, seed)
	return nw
}

// partSeed derives partition p's rng seed. Partition 0 gets the plain seed,
// so a one-partition network draws the exact sequence New's networks always
// drew.
func partSeed(seed int64, p int) int64 {
	const golden = int64(-0x61C8864680B583EB) // 2^64 / φ, as a signed word
	return seed + int64(p)*golden
}

// NewPartitioned creates a network of n hosts sharded across the
// sub-kernels of pk: host i lives on partition i mod pk.Parts(), and all of
// its state is owned by that partition. With more than one partition the
// link model must implement MinDelayModel with a positive bound no smaller
// than pk's lookahead — conservative synchronization is only sound when no
// message can cross partitions faster than the lookahead window.
//
// Fault injection (Partition, Degrade, SetDown) is not supported on
// multi-partition networks and panics.
func NewPartitioned(pk *sim.ParKernel, model LinkModel, n int, seed int64) (*Network, error) {
	p := pk.Parts()
	if p > 1 {
		md, ok := model.(MinDelayModel)
		if !ok {
			return nil, fmt.Errorf("simnet: link model %T does not expose MinDelay; partitioned networks need a positive minimum link delay", model)
		}
		if md.MinDelay() <= 0 {
			return nil, fmt.Errorf("simnet: link model %T has MinDelay %s; partitioned networks need a positive minimum link delay", model, md.MinDelay())
		}
		if pk.Lookahead() <= 0 || pk.Lookahead() > md.MinDelay() {
			return nil, fmt.Errorf("simnet: kernel lookahead %s must be in (0, %s], the model's minimum link delay", pk.Lookahead(), md.MinDelay())
		}
	}
	nw := newNetwork(model, n)
	nw.pk = pk
	nw.parts = make([]netPart, p)
	for i := range nw.parts {
		nw.parts[i].init(pk.Sub(i), partSeed(seed, i))
	}
	for i := range nw.slab {
		nw.slab[i].part = i % p
	}
	return nw, nil
}

// Partitions returns the number of kernel partitions (1 on single-kernel
// networks).
func (nw *Network) Partitions() int { return len(nw.parts) }

// Stats returns the network counters, aggregated across partitions.
func (nw *Network) Stats() Stats {
	var s Stats
	for i := range nw.parts {
		s.add(&nw.parts[i].stats)
	}
	return s
}

// NumHosts returns the host population size.
func (nw *Network) NumHosts() int { return len(nw.hosts) }

// SetProcDelay installs the receiver-side processing delay hook (may be
// nil to disable).
func (nw *Network) SetProcDelay(f ProcDelayFunc) { nw.proc = f }

// SetSilentFailures selects how dead hosts fail. By default a down host
// refuses connections immediately (a killed process on a live machine).
// With silent failures, a down host blackholes traffic: dials and reads
// block until the caller's timeout — the behaviour of a severed WAN link
// or a powered-off machine, which Fig. 10's massive-failure experiment
// models.
func (nw *Network) SetSilentFailures(on bool) { nw.silent = on }

// assertUnpartitioned guards the fault-plane mutators: they reach across
// host state in ways only a single event loop can serialize.
func (nw *Network) assertUnpartitioned(op string) {
	if len(nw.parts) > 1 {
		panic("simnet: " + op + " is not supported on a partitioned network")
	}
}

// FootprintBytes reports the long-lived heap the network layer holds —
// the host slab, the open connection endpoints (half a connPair each;
// closed ones cost nothing) and the payload buffer pools — for the memory
// plane's accountant. It only reads sizes, so sampling it never perturbs a
// schedule; call it between runs, when no partition is mutating its hosts.
func (nw *Network) FootprintBytes() uint64 {
	b := uint64(len(nw.slab)) * uint64(unsafe.Sizeof(Host{}))
	for i := range nw.slab {
		b += uint64(len(nw.slab[i].conns)) * uint64(unsafe.Sizeof(connPair{})/2)
	}
	for i := range nw.parts {
		pt := &nw.parts[i]
		for _, buf := range pt.freeBuf {
			b += uint64(cap(buf))
		}
	}
	return b
}

// Host returns host i.
func (nw *Network) Host(i int) *Host { return nw.hosts[i] }

// Node returns host i's transport.Node view.
func (nw *Network) Node(i int) transport.Node { return nw.hosts[i] }

// cross reports whether traffic between a and b crosses kernel partitions.
func (nw *Network) cross(a, b *Host) bool { return a.part != b.part }

// HostName returns the canonical name of host i.
func HostName(i int) string { return "n" + strconv.Itoa(i) }

// HostID parses a canonical host name back to its index.
func HostID(name string) (int, error) {
	if !strings.HasPrefix(name, "n") {
		return 0, fmt.Errorf("simnet: invalid host name %q", name)
	}
	id, err := strconv.Atoi(name[1:])
	if err != nil || id < 0 {
		return 0, fmt.Errorf("simnet: invalid host name %q", name)
	}
	return id, nil
}

func (nw *Network) hostByName(name string) (*Host, error) {
	id, err := HostID(name)
	if err != nil {
		return nil, err
	}
	if id >= len(nw.hosts) {
		return nil, fmt.Errorf("simnet: host %q out of range (have %d hosts)", name, len(nw.hosts))
	}
	return nw.hosts[id], nil
}

// delay returns the one-way delay between two hosts with a defensive floor
// of zero, plus any active link degradation.
func (nw *Network) delay(a, b int) time.Duration {
	d := nw.model.Delay(a, b)
	if d < 0 {
		d = 0
	}
	if nw.degraded && nw.degExtra > 0 && nw.degApplies(a, b) {
		d += nw.degExtra
	}
	return d
}

// Host is one machine in the simulated network. Host implements
// transport.Node, so application code receives a *Host as its network
// stack. Hosts live in one dense slab per network, and their socket maps
// are nil until first use: a 100k-host population costs a few MB, not a
// few hundred.
type Host struct {
	nw   *Network
	id   int
	part int // owning kernel partition; 0 on single-kernel networks

	// Sockets are short slices, not maps: a host owns a handful of
	// listeners and packet conns and around a dozen stream conns, and at
	// memory-plane populations per-host map headers and buckets dominate
	// the entries they hold. All scans are linear over those few items.
	listeners []*listener
	packets   []*packetConn
	conns     []*conn
	nextEphem int

	upFree   time.Time // uplink busy until
	downFree time.Time // downlink busy until

	down bool // machine failed: sockets reset, dials refused
	gen  int  // incremented at every Down/Up transition
}

// ID returns the host's index in the network.
func (h *Host) ID() int { return h.id }

// Part returns the kernel partition that owns this host.
func (h *Host) Part() int { return h.part }

// Host returns the host's canonical name ("n<i>").
func (h *Host) Host() string { return HostName(h.id) }

// kern returns the kernel partition-owning this host's state: the network's
// only kernel on single-kernel networks.
func (h *Host) kern() *sim.Kernel { return h.nw.parts[h.part].k }

// np returns this host's partition state.
func (h *Host) np() *netPart { return &h.nw.parts[h.part] }

func (h *Host) addConn(c *conn) {
	h.conns = append(h.conns, c)
}

// removeConn drops c from the host's table (no-op if absent).
func (h *Host) removeConn(c *conn) {
	for i := range h.conns {
		if h.conns[i] == c {
			last := len(h.conns) - 1
			copy(h.conns[i:], h.conns[i+1:])
			h.conns[last] = nil
			h.conns = h.conns[:last]
			return
		}
	}
}

// listenerOn returns the listener bound to port, or nil.
func (h *Host) listenerOn(port int) *listener {
	for _, l := range h.listeners {
		if l.port == port {
			return l
		}
	}
	return nil
}

// removeListener drops l from the host's table (no-op if absent).
func (h *Host) removeListener(l *listener) {
	for i := range h.listeners {
		if h.listeners[i] == l {
			last := len(h.listeners) - 1
			copy(h.listeners[i:], h.listeners[i+1:])
			h.listeners[last] = nil
			h.listeners = h.listeners[:last]
			return
		}
	}
}

// packetOn returns the packet socket bound to port, or nil.
func (h *Host) packetOn(port int) *packetConn {
	for _, p := range h.packets {
		if p.port == port {
			return p
		}
	}
	return nil
}

// removePacket drops p from the host's table (no-op if absent).
func (h *Host) removePacket(p *packetConn) {
	for i := range h.packets {
		if h.packets[i] == p {
			last := len(h.packets) - 1
			copy(h.packets[i:], h.packets[i+1:])
			h.packets[last] = nil
			h.packets = h.packets[:last]
			return
		}
	}
}

// Down reports whether the machine is currently failed.
func (h *Host) Down() bool { return h.down }

// SetDown fails or revives the machine. Failing a host resets every open
// connection (both endpoints observe errors), closes its listeners and
// packet sockets, and refuses future dials until revived.
func (h *Host) SetDown(down bool) {
	h.nw.assertUnpartitioned("SetDown")
	if h.down == down {
		return
	}
	h.down = down
	h.gen++
	if !down {
		return
	}
	for _, l := range h.listeners {
		l.close()
	}
	for _, p := range h.packets {
		p.close()
	}
	// Detach the table first: reset/freeze call removeConn, which must
	// not shift the backing array out from under this iteration.
	conns := h.conns
	h.conns = nil
	for _, c := range conns {
		if h.nw.silent {
			c.freeze()
		} else {
			c.reset()
		}
	}
	h.listeners = nil
	h.packets = nil
}

// ephemeralPort returns a free port in [40000, 65000]. It scans the range at
// most once: when every port is occupied it reports an error instead of
// spinning forever.
func (h *Host) ephemeralPort() (int, error) {
	const lo, hi = 40000, 65000
	for tries := 0; tries <= hi-lo; tries++ {
		p := h.nextEphem
		h.nextEphem++
		if h.nextEphem > hi {
			h.nextEphem = lo
		}
		if h.listenerOn(p) != nil {
			continue
		}
		if h.packetOn(p) != nil {
			continue
		}
		return p, nil
	}
	return 0, fmt.Errorf("simnet: %s: no free ephemeral ports in [%d, %d]", h.Host(), lo, hi)
}

// Listen implements transport.Node.
func (h *Host) Listen(port int) (transport.Listener, error) {
	if h.down {
		return nil, transport.ErrClosed
	}
	if port == 0 {
		p, err := h.ephemeralPort()
		if err != nil {
			return nil, err
		}
		port = p
	}
	if h.listenerOn(port) != nil {
		return nil, fmt.Errorf("simnet: %s port %d: address already in use", h.Host(), port)
	}
	l := &listener{host: h, port: port}
	h.listeners = append(h.listeners, l)
	return l, nil
}

// ListenPacket implements transport.Node.
func (h *Host) ListenPacket(port int) (transport.PacketConn, error) {
	if h.down {
		return nil, transport.ErrClosed
	}
	if port == 0 {
		p, err := h.ephemeralPort()
		if err != nil {
			return nil, err
		}
		port = p
	}
	if h.packetOn(port) != nil {
		return nil, fmt.Errorf("simnet: %s udp port %d: address already in use", h.Host(), port)
	}
	p := &packetConn{host: h, port: port}
	h.packets = append(h.packets, p)
	return p, nil
}

// DefaultDialTimeout applies when Dial is called with timeout 0.
const DefaultDialTimeout = 60 * time.Second

// Dial implements transport.Node. The handshake costs one round trip; a
// missing listener or failed host costs the same round trip and returns
// ErrRefused.
//
// Cross-partition dials run the same protocol, split along ownership lines:
// the SYN is posted to the acceptor's partition (it reads the listener
// table and creates the pair), the verdict is posted back to the dialer's
// partition (it registers the local endpoint and wakes the waiter).
func (h *Host) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	k := h.kern()
	if h.down {
		return nil, transport.ErrClosed
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	remote, err := h.nw.hostByName(to.Host)
	if err != nil {
		return nil, err
	}
	h.np().stats.Dials++
	h.nw.ins.Dials.Inc()
	port, err := h.ephemeralPort()
	if err != nil {
		return nil, err
	}
	local := transport.Addr{Host: h.Host(), Port: port}

	w := k.NewWaiter()
	// The verdict events below may fire after the dialer has timed out and
	// its (pooled) waiter been recycled; the generation-stamped ref makes
	// those late wakes safe no-ops.
	ref := w.Ref()
	w.WakeAfter(timeout, transport.ErrTimeout)
	fwd := h.nw.delay(h.id, remote.id)
	rev := h.nw.delay(remote.id, h.id)
	gen := h.gen
	crossing := h.nw.cross(h, remote)

	// SYN arrives at the remote after the forward delay; the verdict
	// (connection or refusal) travels back after the reverse delay. The SYN
	// body runs on the remote's partition; every verdict body runs on the
	// dialer's.
	syn := func() {
		rk := remote.kern()
		verdict := func(fn func()) {
			if crossing {
				h.nw.pk.Post(remote.part, h.part, int64(rk.Now().Add(rev).Sub(sim.Epoch)), fn)
			} else {
				rk.AfterFunc(rev, fn)
			}
		}
		if remote.down && h.nw.silent {
			return // blackholed: the dialer's timeout fires
		}
		if h.nw.cut(h.id, remote.id) {
			return // partitioned: same blackhole, the dialer times out
		}
		l := remote.listenerOn(to.Port)
		if l == nil || remote.down {
			remote.np().stats.RefusedDials++
			h.nw.ins.RefusedDials.Inc()
			verdict(func() { ref.Wake(transport.ErrRefused) })
			return
		}
		cl, cr := newConnPair(h, local, remote, to)
		l.deliver(cr)
		verdict(func() {
			if crossing {
				// The dialer-side endpoint joins its host's table on its
				// own partition, symmetric with newConnPair registering cr.
				h.addConn(cl)
			}
			if h.down || h.gen != gen {
				cl.reset()
				return
			}
			if !ref.Wake(cl) {
				// Dialer already timed out; tear down the orphan.
				cl.Close()
			}
		})
	}
	if crossing {
		h.nw.pk.Post(h.part, remote.part, int64(k.Now().Add(fwd).Sub(sim.Epoch)), syn)
	} else {
		k.AfterFunc(fwd, syn)
	}

	switch v := w.Wait().(type) {
	case *conn:
		return v, nil
	case error:
		return nil, v
	default:
		return nil, transport.ErrClosed
	}
}

// upTimes charges size bytes to a's uplink queue starting now and returns
// the instant the uplink releases the message. Sender-side half of the
// fluid model; always runs on a's partition.
func (nw *Network) upTimes(a *Host, size int) (senderFree time.Time) {
	now := a.kern().Now()
	up := nw.model.UplinkBps(a.id)
	txStart := now
	if txStart.Before(a.upFree) {
		txStart = a.upFree
	}
	txDur := time.Duration(0)
	if up > 0 {
		txDur = time.Duration(float64(size) / up * float64(time.Second))
	}
	senderFree = txStart.Add(txDur)
	a.upFree = senderFree
	return senderFree
}

// recvTimes charges size bytes to b's downlink queue for a message arriving
// at arrive and returns the delivery instant, including any processing
// delay. Receiver-side half of the fluid model; always runs on b's
// partition (at arrival time, for cross-partition traffic).
func (nw *Network) recvTimes(b *Host, arrive time.Time, size int) (delivered time.Time) {
	down := nw.model.DownlinkBps(b.id)
	rxStart := arrive
	if rxStart.Before(b.downFree) {
		rxStart = b.downFree
	}
	rxDur := time.Duration(0)
	if down > 0 {
		rxDur = time.Duration(float64(size) / down * float64(time.Second))
	}
	delivered = rxStart.Add(rxDur)
	b.downFree = delivered
	if nw.proc != nil {
		delivered = delivered.Add(nw.proc(b.id, size))
	}
	return delivered
}

// sendTimes computes the fluid-model schedule for moving size bytes from
// host a to host b starting now: the instant the sender's uplink releases
// the message and the instant the payload is fully delivered at b. Both
// hosts must live on the same partition; cross-partition senders use
// upTimes and let the destination partition run recvTimes on arrival.
func (nw *Network) sendTimes(a, b *Host, size int) (senderFree, delivered time.Time) {
	senderFree = nw.upTimes(a, size)
	arrive := senderFree.Add(nw.delay(a.id, b.id))
	delivered = nw.recvTimes(b, arrive, size)
	return senderFree, delivered
}
