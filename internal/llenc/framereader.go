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
// arms the sink as the stream's wake callback and returns: an idle
// connection holds a 16-byte FrameReader instead of a parked task (a
// goroutine, its parking channel and a kernel waiter; at 100k+ nodes those
// were the largest memory consumer). A live socket is a plain io.Reader,
// and Run stays on its task looping on blocking reads. No option, no
// second reader: Reader remains for handshakes, which read one frame and
// not a byte more, so the stream can be handed to a FrameReader afterwards.
//
// The reader stores no stream, no sink and no callback: the connection
// state that embeds it holds the socket already and is the sink, so it
// passes both to Run, and its Readable method — the callback the stream
// arms, and the body of the task Go spawns — calls Run again. Each fact is
// stored once, and an idle connection pins no closure.
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

// Readable is the callback an event-capable stream arms
// (transport.EventConn.OnReadable): its Readable method runs as one kernel
// event when the stream next has data, EOF or an error. An interface, not
// a func, so the connection state that reads the stream is the callback
// itself and arming it allocates nothing. Declared here because transport
// imports llenc.
type Readable interface{ Readable() }

// eventSource is the capability Run looks for: transport.EventConn's
// non-blocking read half.
type eventSource interface {
	TryRead(p []byte) (int, error)
	OnReadable(r Readable)
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
//
// Readable continues the sink's reader: it calls Run on the FrameReader
// the sink embeds, with the sink's stream and the sink itself. The stream
// arms it when it runs dry, and Go spawns it to start reading.
type FrameSink interface {
	OnFrame(payload []byte) bool
	OnEnd(err error)
	Readable
}

// FrameReader is Reader.ReadMessage restated as a state machine, so that
// running dry suspends by arming a callback instead of parking a task;
// framing, the MaxMessage limit and the error verdicts match Reader's. It
// holds only the frame in progress and embeds by value in the connection
// state it feeds, which is its sink: one allocation for the whole
// connection rather than one per layer.
type FrameReader struct {
	header [HeaderSize]byte
	at     int32   // bytes of the header, or of *buf, read so far
	buf    *[]byte // pooled payload storage, sized to the frame; nil while reading the header
}

// Go starts sink's reader on a fresh task through spawn (AppContext.Go,
// Runtime.Go, Kernel.Go): the task runs sink.Readable. The spawned
// function is a pooled starter's, built once, so starting a reader
// allocates nothing.
func Go(spawn func(func()), sink FrameSink) {
	st := starters.Get().(*starter)
	st.sink = sink
	spawn(st.run)
}

// starter carries a sink into its reader's first task. It recycles itself
// before the reader runs, so a long-running reader never holds it.
type starter struct {
	sink FrameSink
	run  func()
}

var starters sync.Pool

func init() {
	starters.New = func() any {
		st := &starter{}
		st.run = func() {
			sink := st.sink
			st.sink = nil
			starters.Put(st)
			sink.Readable()
		}
		return st
	}
}

// Run reads frames from src into sink until the stream ends or the sink
// declines one. Over an event-capable stream it hands over what is
// buffered and arms sink as the stream's wake callback once src runs dry,
// then returns — sink.Readable calls Run again; otherwise it loops on
// blocking reads and returns after OnEnd. blocking brackets each blocking
// read (core.AppContext.Blocking, so an instance's other tasks run
// meanwhile); nil calls the read directly.
func (fr *FrameReader) Run(src io.Reader, sink FrameSink, blocking func(func())) {
	if ev, ok := src.(eventSource); ok {
		fr.drain(ev, sink)
		return
	}
	fr.loop(src, sink, blocking)
}

// loop is Run over a stream that can only be read by blocking.
func (fr *FrameReader) loop(src io.Reader, sink FrameSink, blocking func(func())) {
	r := Reader{r: src}
	var payload []byte
	var err error
	read := func() { payload, err = r.ReadMessage() }
	if blocking == nil {
		blocking = func(fn func()) { fn() }
	}
	for {
		blocking(read)
		if err != nil || !sink.OnFrame(payload) {
			sink.OnEnd(err)
			return
		}
	}
}

// drain hands over every frame buffered on the stream and either re-arms
// for the next wake or tears down. It runs on the spawning task once and
// as a kernel event callback afterwards, so it must never block.
func (fr *FrameReader) drain(ev eventSource, sink FrameSink) {
	for {
		if fr.buf == nil {
			if !fr.fill(ev, sink, fr.header[:]) {
				return
			}
			need := binary.BigEndian.Uint32(fr.header[:])
			if need > MaxMessage {
				fr.stop(sink, ErrTooLarge)
				return
			}
			fr.buf = frameBufPool.Get().(*[]byte)
			if cap(*fr.buf) < int(need) {
				*fr.buf = make([]byte, need)
			}
			*fr.buf = (*fr.buf)[:need]
			fr.at = 0
		}
		if !fr.fill(ev, sink, *fr.buf) {
			return
		}
		ok := sink.OnFrame(*fr.buf)
		frameBufPool.Put(fr.buf)
		fr.buf = nil
		fr.at = 0
		if !ok {
			fr.stop(sink, nil)
			return
		}
	}
}

// fill reads into dst from fr.at on and reports whether dst is complete;
// if not, the reader has either re-armed (the stream ran dry) or stopped.
// An EOF anywhere but on a frame boundary is a truncated frame, as
// io.ReadFull would report it.
func (fr *FrameReader) fill(ev eventSource, sink FrameSink, dst []byte) bool {
	for int(fr.at) < len(dst) {
		n, err := ev.TryRead(dst[fr.at:])
		if err != nil {
			if err == io.EOF && (fr.buf != nil || fr.at > 0) {
				err = io.ErrUnexpectedEOF
			}
			fr.stop(sink, err)
			return false
		}
		if n == 0 {
			ev.OnReadable(sink)
			return false
		}
		fr.at += int32(n)
	}
	return true
}

// stop releases mid-frame state and reports the verdict exactly once.
func (fr *FrameReader) stop(sink FrameSink, err error) {
	if fr.buf != nil {
		frameBufPool.Put(fr.buf)
		fr.buf = nil
	}
	sink.OnEnd(err)
}
