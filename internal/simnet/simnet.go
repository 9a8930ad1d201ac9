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
// sub-kernels of a sim.ParKernel (NewPartitioned): the link model places
// hosts on partitions (Placement), intra-partition messages are events on
// the owning kernel, and cross-partition ones ride per-source queues
// drained at the ParKernel's conservative lookahead barriers — the
// smallest delay between hosts on different partitions is the lookahead
// window. Host state (uplink/downlink queues, pipes, sockets) is only ever
// touched by the partition that owns the host, and every message takes one
// path whatever the placement: the sender charges its uplink, and the
// receiver charges its downlink when the message arrives. The fault plane's
// network state (partition sides, link degradation) is one replica per
// partition, changed on every replica at one lookahead barrier (Stage);
// free lists drift toward the partitions that receive more than they send
// and are levelled at every barrier.
package simnet

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/stream"
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
// reach itself). A partitioned network over a model that does not place
// its own hosts requires it: the bound is the conservative lookahead
// window, inside which partitions provably cannot influence each other.
type MinDelayModel interface {
	MinDelay() time.Duration
}

// Partitioner is implemented by link models that place hosts on kernel
// partitions themselves. Assign returns the partition of each of hosts
// hosts on a parts-way network, host 0 on partition 0, and the smallest
// one-way delay between two hosts it placed on different partitions.
type Partitioner interface {
	Assign(hosts, parts int) (part []int, cross time.Duration)
}

// Placement returns the partition of each of n hosts on a parts-way network
// over model, and the lookahead that placement admits: the smallest one-way
// delay between hosts on different partitions. A Partitioner places the
// hosts itself; any other model puts host i on partition i mod parts,
// bounded by its MinDelay. One partition needs no bound and has lookahead 0.
func Placement(model LinkModel, n, parts int) ([]int, time.Duration, error) {
	if parts == 1 {
		return make([]int, n), 0, nil
	}
	var place []int
	var look time.Duration
	switch m := model.(type) {
	case Partitioner:
		place, look = m.Assign(n, parts)
	case MinDelayModel:
		place, look = make([]int, n), m.MinDelay()
		for i := range place {
			place[i] = i % parts
		}
	default:
		return nil, 0, fmt.Errorf("simnet: link model %T does not expose MinDelay; partitioned networks need a positive minimum link delay", model)
	}
	if look <= 0 {
		return nil, 0, fmt.Errorf("simnet: link model %T bounds the delay between partitions by %s; partitioned networks need a positive bound", model, look)
	}
	return place, look, nil
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
// hot path touches — kernel, delivery and payload pools, stats, the
// fault state it checks — lives here, owned exclusively by the partition's
// worker, so partitions never contend and never race. A single-kernel
// network is simply a network with one partition.
type netPart struct {
	k       *sim.Kernel
	freeDlv freeList[*delivery] // pooled scheduled messages (see delivery.go)
	freeBuf freeList[[]byte]    // pooled payload buffers (see getBuf/putBuf)
	connSeq int                 // conn creation stamp; see newConnPair for uniqueness
	stats   Stats
	faults  faultState // this partition's replica (see faults.go)

	_ [64]byte // keep neighbouring partitions off this cache line
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
}

// getBuf returns a payload buffer of length n: the topmost of the
// partition's last bufSearch pooled buffers that is large enough, else a
// new one, its capacity rounded up to the allocator's size class (memory
// the allocation holds anyway). A pooled buffer too small for this write
// stays listed for the next write it fits. Payload copies are the
// one per-message allocation the delivery fast path cannot avoid — every
// stream write and datagram copies its bytes so the sender may reuse its
// slice — so the copies ride pooled buffers instead: recycled when the
// reader fully consumes a segment or a delivery is dropped (dead port,
// frozen pipe). See DESIGN.md for the ownership rules. Cross-partition
// payloads drain into the receiver's pool; balancePools levels the pools
// at every barrier.
func (pt *netPart) getBuf(n int) []byte {
	items := pt.freeBuf.items
	for i := len(items) - 1; i >= max(0, len(items)-bufSearch); i-- {
		if cap(items[i]) >= n {
			return pt.freeBuf.take(i)[:n]
		}
	}
	return slices.Grow([]byte(nil), n)[:n]
}

// bufSearch is how many pooled buffers, from the top, getBuf looks through
// for one that fits. On cyclon_churn (seed 1) a search of 4 with size-class
// capacities allocates 764 payload buffers where taking the top alone and
// dropping a misfit allocated 3,553; 16 saves little more (612).
const bufSearch = 4

// putBuf recycles a payload buffer. The caller must be the buffer's sole
// owner: segments go back exactly once, when consumed or dropped.
func (pt *netPart) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	pt.freeBuf.push(b)
}

// release ends the partition's pool epoch; its kernel calls it at every
// epoch release (sim.Kernel.AddReleaseHook), on the partition's own worker.
func (pt *netPart) release() {
	pt.freeDlv.release()
	pt.freeBuf.release()
}

// freeList is a LIFO free list under the kernel's release rule: what no
// pop reached since the last release — the bottom low entries — sat
// unused for the whole epoch and goes, and the backing array is trimmed to
// the longest the list was without them (sim.Trim). Free lists are
// invisible to every schedule, so releasing is too.
type freeList[T any] struct {
	items     []T
	low, high int // shortest and longest since the last release
}

func (f *freeList[T]) pop() (x T, ok bool) {
	if len(f.items) == 0 {
		return x, false
	}
	return f.take(len(f.items) - 1), true
}

// take removes and returns entry i, moving the top entry into its place.
// Everything from i up was reached, so the low-water mark falls to i.
func (f *freeList[T]) take(i int) T {
	last := len(f.items) - 1
	x := f.items[i]
	f.items[i] = f.items[last]
	var zero T
	f.items[last] = zero
	f.items = f.items[:last]
	f.low = min(f.low, i)
	return x
}

func (f *freeList[T]) push(x T) {
	f.items = append(f.items, x)
	f.high = max(f.high, len(f.items))
}

func (f *freeList[T]) release() {
	n := copy(f.items, f.items[f.low:])
	clear(f.items[n:])
	f.items = sim.Trim(f.items[:n], f.high-f.low)
	f.low, f.high = n, n
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

func newNetwork(model LinkModel, n int, seed int64) *Network {
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
		h.loss.Init(seed, "simnet.loss", uint64(i))
		nw.hosts[i] = h
	}
	return nw
}

// New creates a network of n hosts over the kernel using the given link
// model. The seed keys every host's datagram-loss stream.
func New(k *sim.Kernel, model LinkModel, n int, seed int64) *Network {
	nw := newNetwork(model, n, seed)
	nw.parts = []netPart{{k: k}}
	k.AddReleaseHook(nw.parts[0].release)
	return nw
}

// NewPartitioned creates a network of n hosts sharded across the
// sub-kernels of pk by the link model's Placement; all of a host's state is
// owned by its partition. With more than one partition pk's lookahead must
// be positive and no larger than the placement's smallest cross-partition
// delay — conservative synchronization is only sound when no message can
// cross partitions faster than the lookahead window.
//
// Fault injection works on any partition count: Partition, Degrade and
// their undos are staged onto every partition (Stage), and SetDown runs on
// the host's own partition, like everything else that touches the host.
func NewPartitioned(pk *sim.ParKernel, model LinkModel, n int, seed int64) (*Network, error) {
	place, look, err := Placement(model, n, pk.Parts())
	if err != nil {
		return nil, err
	}
	return NewPlaced(pk, model, place, look, seed)
}

// NewPlaced is NewPartitioned over a placement its caller already took
// from Placement: host i of len(place) lives on partition place[i], and
// look is the smallest delay between hosts on different partitions.
func NewPlaced(pk *sim.ParKernel, model LinkModel, place []int, look time.Duration, seed int64) (*Network, error) {
	p := pk.Parts()
	if p > 1 && (pk.Lookahead() <= 0 || pk.Lookahead() > look) {
		return nil, fmt.Errorf("simnet: kernel lookahead %s must be in (0, %s], the smallest delay between hosts on different partitions", pk.Lookahead(), look)
	}
	nw := newNetwork(model, len(place), seed)
	nw.pk = pk
	nw.parts = make([]netPart, p)
	for i := range nw.parts {
		pt := &nw.parts[i]
		pt.k = pk.Sub(i)
		pt.k.AddReleaseHook(pt.release)
	}
	for i := range nw.slab {
		nw.slab[i].part = place[i]
	}
	if p > 1 {
		pk.AddBarrierHook(nw.balancePools)
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

// FootprintBytes reports the long-lived heap the network layer holds —
// the host slab, its connection tables, what each open endpoint pins
// (half its connPair and the segs array of the pipe it reads; closed ones
// cost nothing) and the payload buffer pools — for the memory plane's
// accountant. It only reads sizes, so sampling it never perturbs a
// schedule; call it between runs, when no partition is mutating its hosts.
func (nw *Network) FootprintBytes() uint64 {
	const (
		ptrBytes      = uint64(unsafe.Sizeof((*conn)(nil)))
		segBytes      = uint64(unsafe.Sizeof([]byte(nil)))
		endpointBytes = uint64(unsafe.Sizeof(connPair{}) / 2)
	)
	b := uint64(len(nw.slab)) * uint64(unsafe.Sizeof(Host{}))
	for i := range nw.slab {
		h := &nw.slab[i]
		b += uint64(cap(h.conns)) * ptrBytes
		for _, c := range h.conns {
			b += endpointBytes + uint64(cap(c.rd().segs))*segBytes
		}
	}
	for i := range nw.parts {
		pt := &nw.parts[i]
		for _, buf := range pt.freeBuf.items {
			b += uint64(cap(buf))
		}
	}
	return b
}

// Host returns host i.
func (nw *Network) Host(i int) *Host { return nw.hosts[i] }

// Node returns host i's transport.Node view.
func (nw *Network) Node(i int) transport.Node { return nw.hosts[i] }

// post runs fn on to's partition at instant at, on behalf of code running
// on from's partition: an event on to's kernel when the two share a
// partition, a cross-partition post otherwise. Every message between two
// hosts — SYN, dial verdict, data, EOF, datagram, reset — travels this way,
// so when its receiver side runs depends on the link, never on placement.
// Like every link time in this package, at is ns since sim.Epoch.
func (nw *Network) post(from, to *Host, at int64, fn func()) {
	if from.part == to.part {
		to.kern().AtFunc(at, fn)
		return
	}
	nw.pk.Post(from.part, to.part, at, fn)
}

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
// of zero, plus any link degradation active on pt, the caller's partition.
func (nw *Network) delay(pt *netPart, a, b int) time.Duration {
	d := nw.model.Delay(a, b)
	if d < 0 {
		d = 0
	}
	if f := &pt.faults; f.degraded && f.degExtra > 0 && f.degApplies(a, b) {
		d += f.degExtra
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

	upFree   int64 // uplink busy until, ns since sim.Epoch
	downFree int64 // downlink busy until, ns since sim.Epoch

	down bool            // machine failed: sockets reset, dials refused
	gen  int             // incremented at every Down/Up transition
	loss stream.Source64 // datagram loss draws of what this host sends
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
// packet sockets, and refuses future dials until revived. Like every other
// mutation of the host, it runs on the host's partition.
func (h *Host) SetDown(down bool) {
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

// Bindable reports whether Listen(port) would bind the fixed port now —
// the host is up and nothing listens there — without binding it.
func (h *Host) Bindable(port int) bool { return !h.down && h.listenerOn(port) == nil }

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
func (h *Host) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	k, nw := h.kern(), h.nw
	if h.down {
		return nil, transport.ErrClosed
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	remote, err := nw.hostByName(to.Host)
	if err != nil {
		return nil, err
	}
	h.np().stats.Dials++
	port, err := h.ephemeralPort()
	if err != nil {
		return nil, err
	}
	w := k.NewWaiter()
	// The verdict may fire after the dialer has timed out and its (pooled)
	// waiter been recycled; the generation-stamped ref makes those late
	// wakes safe no-ops.
	d := dialReqs.Get().(*dialReq)
	d.h, d.remote, d.lport, d.rport, d.gen, d.ref = h, remote, port, to.Port, h.gen, w.Ref()
	w.WakeAfter(timeout, transport.ErrTimeout)
	fwd := nw.delay(h.np(), h.id, remote.id)
	d.rev = nw.delay(h.np(), remote.id, h.id)
	nw.post(h, remote, int64(k.Since()+fwd), d.run)

	switch v := w.Wait().(type) {
	case *conn:
		return v, nil
	case error:
		return nil, v
	default:
		return nil, transport.ErrClosed
	}
}

// dialReq is one handshake in flight, split along ownership lines: it
// fires first as the SYN on the acceptor's partition (which reads the
// listener table and creates the pair), then as the verdict on the
// dialer's (which registers the local endpoint and wakes the waiter).
// It is pooled with its closure built once; the verdict recycles it, and a
// blackholed SYN leaves it to the collector.
type dialReq struct {
	h, remote    *Host
	lport, rport int
	gen          int           // h.gen at dial time
	rev          time.Duration // verdict delay, taken at dial time
	ref          sim.WaiterRef
	cl           *conn // the dialer's endpoint; nil when refused
	verdict      bool  // the next firing is the verdict
	run          func()
}

var dialReqs sync.Pool

func init() {
	dialReqs.New = func() any {
		d := &dialReq{}
		d.run = d.fire
		return d
	}
}

func (d *dialReq) fire() {
	h, remote, nw := d.h, d.remote, d.h.nw
	if !d.verdict {
		if remote.down && nw.silent {
			return // blackholed: the dialer's timeout fires
		}
		if remote.np().faults.cut(h.id, remote.id) {
			return // partitioned: same blackhole, the dialer times out
		}
		if l := remote.listenerOn(d.rport); l == nil || remote.down {
			remote.np().stats.RefusedDials++
		} else {
			var cr *conn
			d.cl, cr = newConnPair(h, d.lport, remote, d.rport)
			l.deliver(cr)
		}
		d.verdict = true
		nw.post(remote, h, int64(remote.kern().Since()+d.rev), d.run)
		return
	}
	if cl := d.cl; cl == nil {
		d.ref.Wake(transport.ErrRefused)
	} else {
		if h.part != remote.part {
			// The dialer-side endpoint joins its host's table on its own
			// partition, symmetric with newConnPair registering cr.
			h.addConn(cl)
		}
		if h.down || h.gen != d.gen {
			cl.reset()
		} else if !d.ref.Wake(cl) {
			cl.Close() // dialer already timed out; tear down the orphan
		}
	}
	*d = dialReq{run: d.run}
	dialReqs.Put(d)
}

// upTimes charges size bytes to a's uplink queue starting now and returns
// the instant (ns since sim.Epoch) the uplink releases the message.
// Sender-side half of the fluid model; always runs on a's partition.
func (nw *Network) upTimes(a *Host, size int) (senderFree int64) {
	up := nw.model.UplinkBps(a.id)
	txStart := max(int64(a.kern().Since()), a.upFree)
	var txDur time.Duration
	if up > 0 {
		txDur = time.Duration(float64(size) / up * float64(time.Second))
	}
	senderFree = txStart + int64(txDur)
	a.upFree = senderFree
	return senderFree
}

// recvTimes charges size bytes to b's downlink queue for a message arriving
// at arrive and returns the delivery instant, including any processing
// delay; both are ns since sim.Epoch. Receiver-side half of the fluid
// model; always runs on b's partition, when the message arrives.
func (nw *Network) recvTimes(b *Host, arrive int64, size int) (delivered int64) {
	down := nw.model.DownlinkBps(b.id)
	rxStart := max(arrive, b.downFree)
	var rxDur time.Duration
	if down > 0 {
		rxDur = time.Duration(float64(size) / down * float64(time.Second))
	}
	delivered = rxStart + int64(rxDur)
	b.downFree = delivered
	if nw.proc != nil {
		delivered += int64(nw.proc(b.id, size))
	}
	return delivered
}
