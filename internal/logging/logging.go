// Package logging implements SPLAY's log library (§3.1, §3.4): loggers
// that stamp each line with their node and their runtime's clock (virtual
// time under simulation) and write it to a shared sink. Lines stay in the
// process: a session formats them onto its writer, splayd onto stdout.
package logging

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// WriterSink writes lines onto an io.Writer. Loggers that share a writer
// must share its sink: the mutex is what serializes their writes.
type WriterSink struct {
	mu sync.Mutex
	W  io.Writer
}

// Logger is the application-facing API; it satisfies core.Logger.
type Logger struct {
	sink  *WriterSink
	node  string
	clock func() time.Time
}

// New builds a logger writing to sink as node; clock supplies timestamps
// (virtual time under simulation, time.Now when nil). The third argument
// is ignored: lines carry no identification key.
func New(sink *WriterSink, node, _ string, clock func() time.Time) *Logger {
	if clock == nil {
		clock = time.Now
	}
	return &Logger{sink: sink, node: node, clock: clock}
}

// Printf implements core.Logger: one line of the time, the INFO column,
// the node and the message.
func (l *Logger) Printf(format string, args ...any) {
	now, msg := l.clock(), fmt.Sprintf(format, args...)
	l.sink.mu.Lock()
	defer l.sink.mu.Unlock()
	fmt.Fprintf(l.sink.W, "%s INFO  %s %s\n", now.Format(time.RFC3339), l.node, msg) //nolint:errcheck // logging is best effort
}
