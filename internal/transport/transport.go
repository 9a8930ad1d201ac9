// Package transport defines the network abstraction shared by all SPLAY
// runtimes. Protocol code is written once against these interfaces; the
// simulated network (internal/simnet) implements them on top of the
// discrete-event kernel, and the live network (internal/livenet) implements
// them on top of the standard net package.
//
// The surface deliberately mirrors a small subset of net: stream
// connections with deadlines, listeners, and unreliable datagrams. SPLAY's
// sandboxed socket library (internal/sandbox) wraps these interfaces to
// enforce the restrictions the paper describes (socket counts, bandwidth
// caps, blacklists, forced losses).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"github.com/splaykit/splay/internal/llenc"
)

// Addr identifies a network endpoint: a host name plus a port. In the
// simulated network hosts are named "n0", "n1", …; in the live network the
// host is an IP address or DNS name. On the wire it is {"host":…,"port":…},
// carried by llenc's plan for these tags like every other message.
type Addr struct {
	Host string `json:"host"`
	Port int    `json:"port"`
}

// String renders the address as host:port, bracketing IPv6 hosts
// ("[::1]:5555") so the result round-trips through ParseAddr and the
// standard dialers.
func (a Addr) String() string { return net.JoinHostPort(a.Host, strconv.Itoa(a.Port)) }

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Host == "" && a.Port == 0 }

// Key is a 64-bit FNV-1a hash of the address: equal addresses have equal
// keys, so a scan of an address list can compare keys before strings.
func (a Addr) Key() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a.Host); i++ {
		h = (h ^ uint64(a.Host[i])) * 1099511628211
	}
	return (h ^ uint64(a.Port)) * 1099511628211
}

// ParseAddr parses "host:port" with net.SplitHostPort's bracket
// semantics: IPv6 hosts must be bracketed ("[::1]:5555" parses to host
// "::1"); an unbracketed "::1:5555" is rejected rather than mis-split at
// the last colon.
func ParseAddr(s string) (Addr, error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return Addr{}, fmt.Errorf("transport: address %q: %w", s, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return Addr{}, fmt.Errorf("transport: address %q has invalid port", s)
	}
	return Addr{Host: host, Port: port}, nil
}

// Common transport errors. They satisfy errors.Is against themselves and
// carry net.Error-style Timeout information where relevant.
var (
	// ErrClosed is returned by operations on closed sockets or listeners.
	ErrClosed = errors.New("transport: use of closed connection")
	// ErrRefused is returned by Dial when nothing listens on the target.
	ErrRefused = errors.New("transport: connection refused")
	// ErrTimeout is returned when a deadline or dial timeout expires.
	ErrTimeout = timeoutError{}
	// ErrBlacklisted is returned by sandboxed sockets for forbidden peers.
	ErrBlacklisted = errors.New("transport: address blacklisted")
	// ErrLimit is returned when a sandbox resource limit is exceeded.
	ErrLimit = errors.New("transport: resource limit exceeded")
)

type timeoutError struct{}

func (timeoutError) Error() string { return "transport: i/o timeout" }

// Timeout marks the error as a timeout, matching the net.Error convention.
func (timeoutError) Timeout() bool { return true }

// Temporary marks the error as retryable, matching the net.Error convention.
func (timeoutError) Temporary() bool { return true }

// Conn is a reliable, ordered byte stream between two endpoints.
type Conn interface {
	io.ReadWriteCloser
	// LocalAddr returns the local endpoint of the connection.
	LocalAddr() Addr
	// RemoteAddr returns the remote endpoint of the connection.
	RemoteAddr() Addr
	// SetReadDeadline sets the absolute deadline for future Read calls.
	// A zero time clears the deadline.
	SetReadDeadline(t time.Time) error
}

// EventConn is an optional Conn extension for event-driven readers.
// Instead of parking a task inside Read, a reader drains buffered data
// with TryRead and arms itself with a one-shot OnReadable when it runs
// dry; the transport calls r.Readable (on its scheduler) when data, EOF,
// or an error next arrives. The simulated network implements it so that
// an idle connection costs no parked goroutine and holds no closure; the
// wake-up consumes exactly one scheduler event either way, which keeps
// event-driven and task-based readers schedule-identical in simulation.
//
// TryRead never blocks: it returns (0, nil) when nothing is buffered.
// OnReadable must only be armed while no Read is outstanding, and
// Readable must not block (it may hand off to a task).
type EventConn interface {
	Conn
	TryRead(p []byte) (int, error)
	OnReadable(r llenc.Readable)
}

// EventListener is the accept-side analogue of EventConn: TryAccept
// returns (nil, nil) when no connection is queued, and OnAcceptable arms
// a one-shot callback for the next arrival (or listener close).
type EventListener interface {
	Listener
	TryAccept() (Conn, error)
	OnAcceptable(cb func())
}

// Listener accepts incoming stream connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener is closed.
	Accept() (Conn, error)
	// Close releases the port. Blocked Accept calls return ErrClosed.
	Close() error
	// Addr returns the bound address.
	Addr() Addr
}

// Serve is the accept loop of every stream server: it hands each
// connection ln accepts to each, until ln closes or refuses one. Call it
// on a freshly spawned task. Like llenc.FrameReader for reads, the
// transport picks the loop: an EventListener is drained and re-armed, so
// Serve returns at once and an idle listener parks no task (each then
// runs inside a scheduler callback and must not block — it spawns what
// does); any other listener is looped on with blocking Accepts, each
// bracketed by blocking when it is not nil (core.AppContext.Blocking).
// One arrival costs one scheduler event either way.
func Serve(ln Listener, blocking func(func()), each func(Conn)) {
	if el, ok := ln.(EventListener); ok {
		var drain func()
		drain = func() {
			for {
				c, err := el.TryAccept()
				if err != nil {
					return
				}
				if c == nil {
					el.OnAcceptable(drain)
					return
				}
				each(c)
			}
		}
		drain()
		return
	}
	var c Conn
	var err error
	accept := func() { c, err = ln.Accept() }
	if blocking == nil {
		blocking = func(fn func()) { fn() }
	}
	for {
		blocking(accept)
		if err != nil {
			return
		}
		each(c)
	}
}

// PacketConn sends and receives unreliable datagrams.
type PacketConn interface {
	// ReadFrom blocks for the next datagram and reports its sender.
	ReadFrom(p []byte) (int, Addr, error)
	// WriteTo sends one datagram. Delivery is not guaranteed.
	WriteTo(p []byte, to Addr) (int, error)
	// Close releases the port.
	Close() error
	// SetReadDeadline sets the absolute deadline for future ReadFrom calls.
	SetReadDeadline(t time.Time) error
	// Addr returns the bound address.
	Addr() Addr
}

// Node is one host's view of the network: the factory for its sockets.
type Node interface {
	// Host returns the node's host name (the Host part of its addresses).
	Host() string
	// Listen binds a stream listener on the given port. Port 0 picks a free
	// port.
	Listen(port int) (Listener, error)
	// Dial opens a stream connection to the remote address, failing after
	// timeout (0 means a runtime-specific default).
	Dial(to Addr, timeout time.Duration) (Conn, error)
	// ListenPacket binds a datagram socket on the given port. Port 0 picks
	// a free port.
	ListenPacket(port int) (PacketConn, error)
}
