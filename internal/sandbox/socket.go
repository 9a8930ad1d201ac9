package sandbox

import (
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// NetLimits restricts an application's network usage, mirroring the
// paper's sb_socket layer: (1) total bandwidth available to the
// application, (2) the maximum number of sockets, and (3) the addresses
// the application may or may not contact.
type NetLimits struct {
	MaxSockets int      // concurrently open sockets/listeners (0 = unlimited)
	MaxTxBytes int64    // lifetime bytes sent (0 = unlimited); writes fail beyond it
	MaxRxBytes int64    // lifetime bytes received (0 = unlimited); reads fail beyond it
	Blacklist  []string // host patterns the app must not contact ("n3", "10.0.*")
}

// Tighten merges limits keeping the stricter of each (controller rule).
func (l NetLimits) Tighten(o NetLimits) NetLimits {
	return NetLimits{
		MaxSockets: tighter(l.MaxSockets, o.MaxSockets),
		MaxTxBytes: tighter(l.MaxTxBytes, o.MaxTxBytes),
		MaxRxBytes: tighter(l.MaxRxBytes, o.MaxRxBytes),
		Blacklist:  append(append([]string(nil), l.Blacklist...), o.Blacklist...),
	}
}

// tighter returns the stricter of two limits; 0 means unlimited.
func tighter[T int | int64](a, b T) T {
	if a == 0 || (b > 0 && b < a) {
		return b
	}
	return a
}

// matches reports whether host matches pattern (exact or '*' suffix
// wildcard).
func matches(pattern, host string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(host, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == host
}

// closer is any socket the node opened.
type closer interface{ Close() error }

// Node wraps a transport.Node with enforcement and accounting, and tracks
// every socket so a killed instance's leftovers can be closed. It is the
// only decoration between an instance and its transport and never changes
// how a socket is read: what the transport hands out as an EventConn or
// EventListener (simnet) comes back as one, charged and limited on that
// path exactly as on the blocking one; a live socket stays a plain Conn.
type Node struct {
	inner transport.Node

	mu      sync.Mutex
	limits  NetLimits
	sockets int
	tx, rx  int64
	open    []closer // live sockets, oldest first
}

var _ transport.Node = (*Node)(nil)

// Wrap confines a node's network stack.
func Wrap(inner transport.Node, limits NetLimits) *Node {
	return &Node{inner: inner, limits: limits}
}

// Tighten narrows the node's limits in place to the stricter of what it
// enforces and l (blacklists united); usage so far stays charged.
func (n *Node) Tighten(l NetLimits) {
	n.mu.Lock()
	n.limits = n.limits.Tighten(l)
	n.mu.Unlock()
}

// Usage reports transmitted/received byte counters.
func (n *Node) Usage() (tx, rx int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tx, n.rx
}

// OpenSockets reports the live socket count.
func (n *Node) OpenSockets() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sockets
}

// CloseAll force-closes every socket still open (instance kill), oldest
// first like core.AppContext.Kill, so a killed instance's peers see the
// same close sequence on every run of a seed.
func (n *Node) CloseAll() {
	n.mu.Lock()
	socks := append([]closer(nil), n.open...)
	n.mu.Unlock()
	for _, s := range socks {
		s.Close() //nolint:errcheck
	}
}

// Host implements transport.Node.
func (n *Node) Host() string { return n.inner.Host() }

func (n *Node) blocked(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.ContainsFunc(n.limits.Blacklist, func(p string) bool { return matches(p, host) })
}

// acquire reserves a socket slot; the caller tracks the socket it then
// opens or gives the slot back with abandon.
func (n *Node) acquire() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.limits.MaxSockets > 0 && n.sockets >= n.limits.MaxSockets {
		return transport.ErrLimit
	}
	n.sockets++
	return nil
}

func (n *Node) abandon() {
	n.mu.Lock()
	n.sockets--
	n.mu.Unlock()
}

func (n *Node) track(c closer) {
	n.mu.Lock()
	n.open = append(n.open, c)
	n.mu.Unlock()
}

// release forgets a socket its owner is closing (a second Close finds
// nothing to forget).
func (n *Node) release(c closer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i := slices.Index(n.open, c); i >= 0 {
		n.open = slices.Delete(n.open, i, i+1)
		n.sockets--
	}
}

// chargeTx accounts len bytes of egress, failing when over quota.
func (n *Node) chargeTx(len int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.limits.MaxTxBytes > 0 && n.tx+int64(len) > n.limits.MaxTxBytes {
		return transport.ErrLimit
	}
	n.tx += int64(len)
	return nil
}

// chargeRx accounts the m bytes a read returned; over quota the data
// comes back beside ErrLimit.
func (n *Node) chargeRx(m int, err error) (int, error) {
	if m <= 0 {
		return m, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.limits.MaxRxBytes > 0 && n.rx+int64(m) > n.limits.MaxRxBytes {
		return m, transport.ErrLimit
	}
	n.rx += int64(m)
	return m, err
}

// Dial implements transport.Node with blacklist and socket limits.
func (n *Node) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	if n.blocked(to.Host) {
		return nil, transport.ErrBlacklisted
	}
	if err := n.acquire(); err != nil {
		return nil, err
	}
	c, err := n.inner.Dial(to, timeout)
	if err != nil {
		n.abandon()
		return nil, err
	}
	return n.stream(c), nil
}

// Listen implements transport.Node.
func (n *Node) Listen(port int) (transport.Listener, error) {
	if err := n.acquire(); err != nil {
		return nil, err
	}
	l, err := n.inner.Listen(port)
	if err != nil {
		n.abandon()
		return nil, err
	}
	el := &sbEventListener{sbListener{l, n}}
	n.track(&el.sbListener)
	if _, ok := l.(transport.EventListener); ok {
		return el, nil
	}
	return &el.sbListener, nil // the same socket without the event methods
}

// ListenPacket implements transport.Node.
func (n *Node) ListenPacket(port int) (transport.PacketConn, error) {
	if err := n.acquire(); err != nil {
		return nil, err
	}
	p, err := n.inner.ListenPacket(port)
	if err != nil {
		n.abandon()
		return nil, err
	}
	sp := &sbPacket{PacketConn: p, n: n}
	n.track(sp)
	return sp, nil
}

// stream sandboxes a stream whose socket slot is already acquired.
func (n *Node) stream(c transport.Conn) transport.Conn {
	ec := &sbEventConn{sbConn{c, n}}
	n.track(&ec.sbConn)
	if _, ok := c.(transport.EventConn); ok {
		return ec
	}
	return &ec.sbConn // the same socket without the event methods
}

// admit sandboxes an accepted stream, or closes it uncounted when the
// socket limit refuses it.
func (n *Node) admit(c transport.Conn) (transport.Conn, error) {
	if err := n.acquire(); err != nil {
		c.Close()
		return nil, err
	}
	return n.stream(c), nil
}

// sbConn wraps a stream with accounting.
type sbConn struct {
	transport.Conn
	n *Node
}

func (c *sbConn) Write(p []byte) (int, error) {
	if err := c.n.chargeTx(len(p)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *sbConn) Read(p []byte) (int, error) { return c.n.chargeRx(c.Conn.Read(p)) }

func (c *sbConn) Close() error {
	c.n.release(c)
	return c.Conn.Close()
}

// sbEventConn is the sbConn of an EventConn: the event read is charged
// like the blocking one.
type sbEventConn struct{ sbConn }

func (c *sbEventConn) TryRead(p []byte) (int, error) {
	return c.n.chargeRx(c.Conn.(transport.EventConn).TryRead(p))
}

func (c *sbEventConn) OnReadable(r llenc.Readable) { c.Conn.(transport.EventConn).OnReadable(r) }

// sbListener wraps a listener; accepted conns are sandboxed and counted.
type sbListener struct {
	transport.Listener
	n *Node
}

func (l *sbListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.admit(c)
}

func (l *sbListener) Close() error {
	l.n.release(l)
	return l.Listener.Close()
}

// sbEventListener is the sbListener of an EventListener: the event accept
// admits, refuses and tracks like the blocking one.
type sbEventListener struct{ sbListener }

func (l *sbEventListener) TryAccept() (transport.Conn, error) {
	c, err := l.Listener.(transport.EventListener).TryAccept()
	if c == nil || err != nil {
		return nil, err
	}
	return l.n.admit(c)
}

func (l *sbEventListener) OnAcceptable(cb func()) {
	l.Listener.(transport.EventListener).OnAcceptable(cb)
}

// sbPacket wraps a datagram socket.
type sbPacket struct {
	transport.PacketConn
	n *Node
}

func (p *sbPacket) WriteTo(b []byte, to transport.Addr) (int, error) {
	if p.n.blocked(to.Host) {
		return 0, transport.ErrBlacklisted
	}
	if err := p.n.chargeTx(len(b)); err != nil {
		return 0, err
	}
	return p.PacketConn.WriteTo(b, to)
}

func (p *sbPacket) ReadFrom(b []byte) (int, transport.Addr, error) {
	m, from, err := p.PacketConn.ReadFrom(b)
	m, err = p.n.chargeRx(m, err)
	return m, from, err
}

func (p *sbPacket) Close() error {
	p.n.release(p)
	return p.PacketConn.Close()
}
