package rpc

// Event-driven read loops: the memory plane's replacement for the two
// parked tasks every pooled connection used to pin (the server's
// serveConn and the client's readLoop).
//
// The rule: the transport picks the reader. On the simulated network every
// stream is a transport.EventConn and every listener an EventListener —
// bare or behind the instance's sandbox, the only decoration a socket ever
// carries, which passes the capability through — so every simulated
// instance, however it was started, gets the frame reader and the event
// accept: an idle connection holds a ~100-byte frame reader instead of a
// goroutine, its parking channel and a kernel waiter; at 100k+ nodes those
// goroutines (g structs plus stacks) were the single largest memory
// consumer. Live sockets are plain Conns, and the task loops (serveConn,
// readLoop, the blocking accept) are what only they use. Byte instruments
// are read off the frames, so metering cannot change the reader either.
//
// Schedule neutrality is load-bearing: simnet delivers a readability
// callback with exactly one kernel event (one alloc + one push at the
// current instant), the same cost as waking a parked reader's waiter,
// and the drain loop consumes buffered data with the same greed as a
// task looping on blocking reads. Swapping loop styles therefore
// reproduces pinned golden event orders bit for bit. Both loops only
// ever blocked inside Read — handlers already run as their own tasks
// and replies are written by the finishing handler — which is what
// makes the event form possible at all.

import (
	"encoding/binary"
	"io"
	"sync"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// frameBufPool recycles payload buffers across all event-driven readers.
// A reader borrows a buffer only while a frame is in flight and returns
// it after dispatch, so idle connections retain nothing — unlike the
// per-connection llenc.Reader buffer, which held the high-water frame
// size for the connection's lifetime.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getFrameBuf(n int) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return bp
}

func putFrameBuf(bp *[]byte) {
	frameBufPool.Put(bp)
}

// frameSink receives a frameReader's output: one call per complete
// frame (false drops the connection) and one teardown verdict (nil when
// onFrame declined). Both connection ends implement it directly, so a
// reader embeds in its owner with no dispatch closures.
type frameSink interface {
	onFrame(payload []byte) bool
	onEnd(err error)
}

// frameReader is an incremental llenc frame decoder over an EventConn:
// llenc.Reader.ReadMessage restated as a state machine so that running
// dry suspends by arming a callback instead of parking a task. Framing,
// size limits and error verdicts match llenc exactly. The zero value is
// initialized with init; it embeds by value in the connection state it
// feeds (peerConn, serverConn), costing one allocation for the whole
// connection rather than one per layer.
type frameReader struct {
	conn transport.EventConn
	sink frameSink
	run  func() // the armed wake callback, allocated once

	header [4]byte
	hfill  int32
	buf    *[]byte // pooled payload storage, held only mid-frame
	need   int32   // expected payload length; -1 while reading the header
	pfill  int32
}

func (fr *frameReader) init(conn transport.EventConn, sink frameSink) {
	fr.conn = conn
	fr.sink = sink
	fr.need = -1
	fr.run = fr.drain
}

// drain consumes everything buffered on the connection — exactly as
// greedily as a task looping on blocking reads — dispatching each
// complete frame, and either re-arms for the next wake or tears down.
// It runs on the spawning task once at installation and as a kernel
// event callback afterwards, so it must never block.
func (fr *frameReader) drain() {
	for {
		if fr.need < 0 {
			if int(fr.hfill) < len(fr.header) {
				n, err := fr.conn.TryRead(fr.header[fr.hfill:])
				if err != nil {
					if err == io.EOF && fr.hfill > 0 {
						// Mid-header EOF is a truncated frame, as
						// io.ReadFull would report it.
						err = io.ErrUnexpectedEOF
					}
					fr.stop(err)
					return
				}
				if n == 0 {
					fr.conn.OnReadable(fr.run)
					return
				}
				fr.hfill += int32(n)
				continue
			}
			need := binary.BigEndian.Uint32(fr.header[:])
			if need > llenc.MaxMessage {
				fr.stop(llenc.ErrTooLarge)
				return
			}
			fr.need = int32(need)
			fr.pfill = 0
			fr.buf = getFrameBuf(int(fr.need))
		}
		if fr.pfill < fr.need {
			n, err := fr.conn.TryRead((*fr.buf)[fr.pfill:fr.need])
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				fr.stop(err)
				return
			}
			if n == 0 {
				fr.conn.OnReadable(fr.run)
				return
			}
			fr.pfill += int32(n)
			continue
		}
		payload := (*fr.buf)[:fr.need]
		ok := fr.sink.onFrame(payload)
		putFrameBuf(fr.buf)
		fr.buf = nil
		fr.need = -1
		fr.hfill = 0
		if !ok {
			fr.stop(nil)
			return
		}
	}
}

// stop releases mid-frame state and reports the verdict exactly once.
func (fr *frameReader) stop(err error) {
	if fr.buf != nil {
		putFrameBuf(fr.buf)
		fr.buf = nil
	}
	fr.sink.onEnd(err)
}
