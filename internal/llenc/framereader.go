package llenc

// The steady-state reader of every framed protocol — rpc's two connection
// ends, controller sessions, the daemon's control loop and the
// aggregator's streams. Each states only what it does with a
// frame (a FrameSink); how frames come off the stream is decided here.
//
// The rule: the transport picks the reader. On the simulated network every
// stream can be read without blocking (transport.EventConn) — bare or
// behind the instance's sandbox, the only decoration a socket ever carries,
// which passes the capability through — so Run drains what is buffered,
// arms a callback and returns: an idle connection holds a 56-byte
// FrameReader instead of a parked task (a goroutine, its parking channel
// and a kernel waiter; at 100k+ nodes those were the largest memory
// consumer). A live socket is a plain io.Reader, and Run stays on its task
// looping on blocking reads. No option, no second reader: Reader remains
// for handshakes, which read one frame and not a byte more, so the stream
// can be handed to a FrameReader afterwards.
//
// Schedule neutrality is load-bearing: simnet delivers a readability
// callback with exactly one kernel event (one alloc + one push at the
// current instant), the cost of waking a parked reader's waiter, and drain
// consumes buffered data as greedily as a task looping on blocking reads.
// Replacing a parked loop with this reader therefore reproduces pinned
// golden event orders bit for bit — provided the spawn that parked the
// loop is the spawn that calls Run.
//
// The sink rule: a sink never blocks. Over an event-capable stream OnFrame
// and OnEnd run inside a kernel event callback, where the simulated kernel
// panics with "blocking kernel primitive called outside a task" on a
// sleep, a lock wait or a socket write; work that may block is spawned as
// its own task (rpc handlers and error replies, the daemon's command
// handlers and redial). What sinks call directly was audited for this:
// the controller's pendingReply.fn (wakes a waiter or records under a
// plain mutex) and metrics.Aggregator.absorb (a merge under a plain
// mutex).

import (
	"encoding/binary"
	"io"
	"sync"
)

// eventSource is the capability Init looks for: transport.EventConn's
// non-blocking read half, declared here because transport imports llenc.
type eventSource interface {
	TryRead(p []byte) (int, error)
	OnReadable(cb func())
}

// frameBufPool recycles payload buffers across all event-driven readers:
// one is borrowed only while a frame is in flight, so idle connections
// retain nothing — unlike a Reader, which keeps its high-water frame size.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// FrameSink receives a FrameReader's output: one OnFrame per complete
// frame (false drops the connection; the payload is valid only until
// OnFrame returns) and exactly one OnEnd verdict — the read error, or nil
// when OnFrame declined. Neither may block. A sink that meters its input
// counts HeaderSize+len(payload) per frame.
type FrameSink interface {
	OnFrame(payload []byte) bool
	OnEnd(err error)
}

// FrameReader is Reader.ReadMessage restated as a state machine, so that
// running dry suspends by arming a callback instead of parking a task;
// framing, the MaxMessage limit and the error verdicts match Reader's. It
// embeds by value in the connection state it feeds, usually its sink: one
// allocation for the whole connection rather than one per layer.
type FrameReader struct {
	// Run, set by Init, reads frames into the sink until the stream ends
	// or the sink declines one. Call it on a freshly spawned task: over an
	// event-capable stream it returns once the stream runs dry and goes on
	// as the armed wake callback (a field, so that spawning and re-arming
	// it allocate nothing); otherwise it returns after OnEnd.
	Run func()

	src  io.Reader
	sink FrameSink

	header [HeaderSize]byte
	at     int32   // bytes of the header, or of *buf, read so far
	buf    *[]byte // pooled payload storage, sized to the frame; nil while reading the header
}

// Init binds the reader to its stream and sink and picks how Run will
// read src. blocking brackets each blocking read of a stream that has no
// event capability (core.AppContext.Blocking, so an instance's other
// tasks run meanwhile); nil calls the read directly.
func (fr *FrameReader) Init(src io.Reader, sink FrameSink, blocking func(func())) {
	fr.src, fr.sink = src, sink
	if _, ok := src.(eventSource); ok {
		fr.Run = fr.drain
		return
	}
	fr.Run = func() { fr.loop(blocking) }
}

// Source returns the stream Init was given, for a sink that closes it at
// OnEnd.
func (fr *FrameReader) Source() io.Reader { return fr.src }

// loop is Run over a stream that can only be read by blocking.
func (fr *FrameReader) loop(blocking func(func())) {
	r := Reader{r: fr.src}
	var payload []byte
	var err error
	read := func() { payload, err = r.ReadMessage() }
	if blocking == nil {
		blocking = func(fn func()) { fn() }
	}
	for {
		blocking(read)
		if err != nil || !fr.sink.OnFrame(payload) {
			fr.sink.OnEnd(err)
			return
		}
	}
}

// drain hands over every frame buffered on the stream and either re-arms
// for the next wake or tears down. It runs on the spawning task once and
// as a kernel event callback afterwards, so it must never block.
func (fr *FrameReader) drain() {
	ev := fr.src.(eventSource)
	for {
		if fr.buf == nil {
			if !fr.fill(ev, fr.header[:]) {
				return
			}
			need := binary.BigEndian.Uint32(fr.header[:])
			if need > MaxMessage {
				fr.stop(ErrTooLarge)
				return
			}
			fr.buf = frameBufPool.Get().(*[]byte)
			if cap(*fr.buf) < int(need) {
				*fr.buf = make([]byte, need)
			}
			*fr.buf = (*fr.buf)[:need]
			fr.at = 0
		}
		if !fr.fill(ev, *fr.buf) {
			return
		}
		ok := fr.sink.OnFrame(*fr.buf)
		frameBufPool.Put(fr.buf)
		fr.buf = nil
		fr.at = 0
		if !ok {
			fr.stop(nil)
			return
		}
	}
}

// fill reads into dst from fr.at on and reports whether dst is complete;
// if not, the reader has either re-armed (the stream ran dry) or stopped.
// An EOF anywhere but on a frame boundary is a truncated frame, as
// io.ReadFull would report it.
func (fr *FrameReader) fill(ev eventSource, dst []byte) bool {
	for int(fr.at) < len(dst) {
		n, err := ev.TryRead(dst[fr.at:])
		if err != nil {
			if err == io.EOF && (fr.buf != nil || fr.at > 0) {
				err = io.ErrUnexpectedEOF
			}
			fr.stop(err)
			return false
		}
		if n == 0 {
			ev.OnReadable(fr.Run)
			return false
		}
		fr.at += int32(n)
	}
	return true
}

// stop releases mid-frame state and reports the verdict exactly once.
func (fr *FrameReader) stop(err error) {
	if fr.buf != nil {
		frameBufPool.Put(fr.buf)
		fr.buf = nil
	}
	fr.sink.OnEnd(err)
}
