// Package livenet implements the transport abstraction over the real
// network (standard library net), used by the splayd executable and live
// Scenarios (the quickstart example). An optional TLS mode secures the
// daemon↔controller link with an in-memory self-signed certificate,
// standing in for the paper's SSL deployment.
package livenet

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"strconv"
	"time"

	"github.com/splaykit/splay/internal/transport"
)

// Node is a live network stack advertising the given host name.
type Node struct {
	host string
	// TLS, when non-nil, wraps stream connections (client side uses
	// InsecureSkipVerify against the self-signed controller cert, which
	// matches the paper's key-on-first-use deployment).
	TLS *tls.Config
}

var _ transport.Node = (*Node)(nil)

// NewNode returns a live node; host is the name peers use to reach it
// (e.g. "127.0.0.1").
func NewNode(host string) *Node { return &Node{host: host} }

// Host implements transport.Node.
func (n *Node) Host() string { return n.host }

// Listen implements transport.Node.
func (n *Node) Listen(port int) (transport.Listener, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort("", strconv.Itoa(port)))
	if err != nil {
		return nil, err
	}
	if n.TLS != nil {
		ln = tls.NewListener(ln, n.TLS)
	}
	return &listener{ln: ln, host: n.host}, nil
}

// Dial implements transport.Node.
func (n *Node) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	var c net.Conn
	var err error
	if n.TLS != nil {
		d := &net.Dialer{Timeout: timeout}
		c, err = tls.DialWithDialer(d, "tcp", to.String(), &tls.Config{InsecureSkipVerify: true})
	} else {
		c, err = net.DialTimeout("tcp", to.String(), timeout)
	}
	if err != nil {
		return nil, err
	}
	return &conn{c: c, remote: to}, nil
}

// ListenPacket implements transport.Node.
func (n *Node) ListenPacket(port int) (transport.PacketConn, error) {
	pc, err := net.ListenPacket("udp", net.JoinHostPort("", strconv.Itoa(port)))
	if err != nil {
		return nil, err
	}
	return &packetConn{pc: pc, host: n.host}, nil
}

type conn struct {
	c      net.Conn
	remote transport.Addr
}

func (c *conn) Read(p []byte) (int, error)  { return c.c.Read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.c.Write(p) }
func (c *conn) Close() error                { return c.c.Close() }
func (c *conn) LocalAddr() transport.Addr   { return fromNet(c.c.LocalAddr()) }
func (c *conn) RemoteAddr() transport.Addr {
	if !c.remote.IsZero() {
		return c.remote
	}
	return fromNet(c.c.RemoteAddr())
}
func (c *conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

type listener struct {
	ln   net.Listener
	host string
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{c: c}, nil
}

func (l *listener) Close() error { return l.ln.Close() }
func (l *listener) Addr() transport.Addr {
	a := fromNet(l.ln.Addr())
	a.Host = l.host
	return a
}

type packetConn struct {
	pc   net.PacketConn
	host string
}

func (p *packetConn) ReadFrom(b []byte) (int, transport.Addr, error) {
	n, from, err := p.pc.ReadFrom(b)
	if err != nil {
		return n, transport.Addr{}, err
	}
	return n, fromNet(from), nil
}

func (p *packetConn) WriteTo(b []byte, to transport.Addr) (int, error) {
	ua, err := net.ResolveUDPAddr("udp", to.String())
	if err != nil {
		return 0, err
	}
	return p.pc.WriteTo(b, ua)
}

func (p *packetConn) Close() error                      { return p.pc.Close() }
func (p *packetConn) SetReadDeadline(t time.Time) error { return p.pc.SetReadDeadline(t) }
func (p *packetConn) Addr() transport.Addr {
	a := fromNet(p.pc.LocalAddr())
	a.Host = p.host
	return a
}

func fromNet(a net.Addr) transport.Addr {
	if a == nil {
		return transport.Addr{}
	}
	out, err := transport.ParseAddr(a.String())
	if err != nil {
		return transport.Addr{Host: a.String()}
	}
	return out
}

// SelfSignedTLS generates an ephemeral server certificate for host,
// returning the server-side TLS configuration.
func SelfSignedTLS(host string) (*tls.Config, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("livenet: keygen: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: "splayctl"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		DNSNames:     []string{host},
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	if ip := net.ParseIP(host); ip != nil {
		tmpl.IPAddresses = []net.IP{ip}
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("livenet: certificate: %w", err)
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}
