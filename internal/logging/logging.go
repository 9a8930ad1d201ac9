// Package logging implements SPLAY's log library (§3.1, §3.4): leveled,
// dynamically switchable loggers that stamp each record with their node
// and their runtime's clock (virtual time under simulation) and hand it
// to a Sink. Records stay in the process: a session formats them onto
// its writer, splayd onto stdout.
package logging

import (
	"fmt"
	"io"
	"sync"
	"time"
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

// Record is one log entry.
type Record struct {
	Time  time.Time
	Level Level
	Node  string
	Msg   string
}

// Sink consumes records.
type Sink interface {
	Emit(r Record) error
}

// WriterSink formats records onto an io.Writer, one line each. Loggers
// that share a writer must share its sink: the mutex is what serializes
// their writes.
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
	min   Level
	off   bool
	clock func() time.Time
}

// New builds a logger emitting to sink as node; clock supplies timestamps
// (virtual time under simulation, time.Now when nil). The third argument
// is ignored: records carry no identification key.
func New(sink Sink, node, _ string, clock func() time.Time) *Logger {
	if clock == nil {
		clock = time.Now
	}
	return &Logger{sink: sink, node: node, clock: clock}
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
		Time: l.clock(), Level: level, Node: l.node, Msg: fmt.Sprintf(format, args...),
	})
}

// Printf implements core.Logger at Info level.
func (l *Logger) Printf(format string, args ...any) { l.Log(Info, format, args...) }

// Debugf, Warnf and Errorf are level-specific helpers.
func (l *Logger) Debugf(format string, args ...any) { l.Log(Debug, format, args...) }
func (l *Logger) Warnf(format string, args ...any)  { l.Log(Warn, format, args...) }
func (l *Logger) Errorf(format string, args ...any) { l.Log(Error, format, args...) }
