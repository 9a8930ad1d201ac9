// Package logging implements SPLAY's log library and the controller-side
// log collector. Applications print locally or stream records over the
// network to a collector process; daemons hand each application the
// collector address plus a unique identification key, and the collector
// rejects connections that don't present a known key (§3.1, §3.4).
package logging

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Level grades log records.
type Level int

// Levels, lowest to highest severity.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

func (l Level) String() string {
	switch l {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	default:
		return "ERROR"
	}
}

// Record is one log entry on the wire.
type Record struct {
	Key   string    `json:"key"` // daemon-issued identification key
	Time  time.Time `json:"time"`
	Level Level     `json:"level"`
	Node  string    `json:"node"`
	Msg   string    `json:"msg"`
}

// Sink consumes records.
type Sink interface {
	Emit(r Record) error
}

// WriterSink formats records onto an io.Writer (the "local" mode).
type WriterSink struct {
	mu sync.Mutex
	W  io.Writer
}

// Emit implements Sink.
func (s *WriterSink) Emit(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := fmt.Fprintf(s.W, "%s %-5s %s %s\n", r.Time.Format(time.RFC3339), r.Level, r.Node, r.Msg)
	return err
}

// Logger is the application-facing API; it satisfies core.Logger.
type Logger struct {
	sink  Sink
	node  string
	key   string
	min   Level
	off   bool
	clock func() time.Time
}

// New builds a logger emitting to sink; clock supplies timestamps
// (virtual time under simulation).
func New(sink Sink, node, key string, clock func() time.Time) *Logger {
	if clock == nil {
		clock = time.Now
	}
	return &Logger{sink: sink, node: node, key: key, clock: clock}
}

// SetLevel drops records below min.
func (l *Logger) SetLevel(min Level) { l.min = min }

// SetEnabled toggles logging entirely (the paper's dynamic enable/disable).
func (l *Logger) SetEnabled(on bool) { l.off = !on }

// Enabled reports whether a record at level would be emitted — the
// paper's dynamic enable/disable check, factored out so the disabled
// and level-filtered paths cost one inlined branch and no allocations
// (no Sprintf, no Record, nothing boxed for the sink).
func (l *Logger) Enabled(level Level) bool {
	return !l.off && level >= l.min && l.sink != nil
}

// Log emits one record at the given level. The guard runs before any
// formatting work, so a filtered call is free (see TestDisabledLogAllocs).
func (l *Logger) Log(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	l.emit(level, format, args)
}

// emit is Log's slow path: format, stamp and hand to the sink.
func (l *Logger) emit(level Level, format string, args []any) {
	l.sink.Emit(Record{ //nolint:errcheck // logging is best effort
		Key: l.key, Time: l.clock(), Level: level,
		Node: l.node, Msg: fmt.Sprintf(format, args...),
	})
}

// Printf implements core.Logger at Info level.
func (l *Logger) Printf(format string, args ...any) { l.Log(Info, format, args...) }

// Debugf, Warnf and Errorf are level-specific helpers.
func (l *Logger) Debugf(format string, args ...any) { l.Log(Debug, format, args...) }
func (l *Logger) Warnf(format string, args ...any)  { l.Log(Warn, format, args...) }
func (l *Logger) Errorf(format string, args ...any) { l.Log(Error, format, args...) }

// NetSink streams records to a collector over a transport connection.
// Emits are batched per connection the way the RPC server batches its
// replies: emitters enqueue under a plain mutex and return, and the
// task that finds the writer idle becomes the flusher, draining
// everything queued behind it. The mutex is never held across Encode
// (which blocks in virtual time), so logging never parks the caller
// behind another task's network write.
type NetSink struct {
	enc *llenc.Writer
	c   transport.Conn

	mu       sync.Mutex
	queue    []Record
	spare    []Record // recycled batch backing
	flushing bool
	err      error // first write error; the stream is dead after one
}

// DialCollector connects to a collector.
func DialCollector(node transport.Node, addr transport.Addr, timeout time.Duration) (*NetSink, error) {
	c, err := node.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("logging: dial collector: %w", err)
	}
	return &NetSink{enc: llenc.NewWriter(c), c: c}, nil
}

// Emit implements Sink. A nil return means the record was queued; a
// failed stream reports its first error to every later Emit.
func (s *NetSink) Emit(r Record) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.queue = append(s.queue, r)
	if s.flushing {
		s.mu.Unlock()
		return nil
	}
	s.flushing = true
	for len(s.queue) > 0 && s.err == nil {
		batch := s.queue
		s.queue = s.spare[:0]
		s.mu.Unlock()
		var err error
		for i := range batch {
			if err == nil {
				err = s.enc.Encode(&batch[i])
			}
			batch[i] = Record{} // drop string references
		}
		s.mu.Lock()
		if err != nil && s.err == nil {
			s.err = err
		}
		s.spare = batch[:0]
	}
	s.flushing = false
	err := s.err
	s.mu.Unlock()
	return err
}

// Close closes the collector connection.
func (s *NetSink) Close() error { return s.c.Close() }

// Collector is the controller-side log process: it accepts connections
// from daemons' applications and forwards authenticated records to a
// sink. Connections presenting an unknown key are dropped.
type Collector struct {
	ln    transport.Listener
	sink  Sink
	spawn func(fn func())

	mu   sync.Mutex
	keys map[string]bool
	recv uint64
}

// NewCollector listens on the node's port and forwards to sink; spawn
// runs connection handlers as tasks (core.Runtime.Go or `go`).
func NewCollector(node transport.Node, port int, sink Sink, spawn func(fn func())) (*Collector, error) {
	ln, err := node.Listen(port)
	if err != nil {
		return nil, err
	}
	c := &Collector{ln: ln, sink: sink, spawn: spawn, keys: make(map[string]bool)}
	spawn(func() { transport.Serve(ln, nil, c.serve) })
	return c, nil
}

// Addr returns the collector's address.
func (c *Collector) Addr() transport.Addr { return c.ln.Addr() }

// Authorize registers an application key.
func (c *Collector) Authorize(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys[key] = true
}

// Received reports accepted record count.
func (c *Collector) Received() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recv
}

// Close stops the collector.
func (c *Collector) Close() error { return c.ln.Close() }

// logStream is one application's connection to the collector: the sink
// of the frame reader that feeds it the application's records.
type logStream struct {
	c    *Collector
	conn transport.Conn
	fr   llenc.FrameReader
}

// serve spawns an accepted stream's frame reader.
func (c *Collector) serve(conn transport.Conn) {
	st := &logStream{c: c, conn: conn}
	st.fr.Init(conn, st, nil)
	c.spawn(st.fr.Run)
}

// OnFrame forwards one authenticated record to the collector's sink.
func (st *logStream) OnFrame(payload []byte) bool {
	var r Record
	if llenc.Unmarshal(payload, &r) != nil {
		return false
	}
	c := st.c
	c.mu.Lock()
	ok := c.keys[r.Key]
	if ok {
		c.recv++
	}
	c.mu.Unlock()
	if !ok {
		return false // unauthenticated sender: drop the connection
	}
	c.sink.Emit(r) //nolint:errcheck
	return true
}

func (st *logStream) OnEnd(error) { st.conn.Close() }
