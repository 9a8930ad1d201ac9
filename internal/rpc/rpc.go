// Package rpc implements SPLAY's RPC library: named remote procedures with
// transparent JSON serialization over stream transports, framed by llenc.
//
// The API mirrors the paper's usage. A server registers handlers by name;
// clients invoke them with positional arguments. Call is the paper's
// rpc.call; errors (including timeouts, the paper's rpc.a_call status
// return) come back as Go errors. Ping is the paper's rpc.ping.
//
// Clients keep a small pool of connections, multiplexing concurrent calls
// to one destination over a single stream.
//
// The message plane is built for throughput: requests ride the
// hand-rolled fast codec in fast.go and responses and the values inside
// both ride llenc's derived plans (byte-identical to encoding/json),
// argument arrays decode lazily from pooled buffers, and replies
// queued behind one connection writer are drained in a batch by whichever
// task got there first. See DESIGN.md ("The message plane").
package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// DefaultTimeout matches the paper's standard RPC timeout of two minutes.
const DefaultTimeout = 2 * time.Minute

// ErrTimeout is returned when a call's timeout expires before a response.
var ErrTimeout = transport.ErrTimeout

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// pingMethod is the reserved method Ping uses.
const pingMethod = "__ping"

type request struct {
	ID     uint64 `json:"id"`
	Method string `json:"m"`
	Args   []any  `json:"a,omitempty"`
}

type response struct {
	ID     uint64          `json:"id"`
	Err    string          `json:"e,omitempty"`
	Result json.RawMessage `json:"r,omitempty"`

	scratch *[]byte // server side: Result's pooled backing, released once framed
}

// Args gives handlers typed access to positional call arguments. The
// argument array is decoded lazily: elements are split on first access
// and unmarshaled only when asked for, so a handler that reads two of
// five arguments never parses the other three.
//
// Args and any raw bytes reached through it are owned by the server and
// valid only until the handler returns (the backing buffer is pooled).
// Decode, String and Int all copy, so ordinary use is safe; a handler
// that wants to retain an argument past its return must decode it.
type Args struct {
	l *argList
}

// NewArgs builds an Args from pre-encoded elements, for invoking a
// Handler directly (bypassing the network for local shortcuts and
// tests). The caller keeps ownership of the elements.
func NewArgs(elems ...json.RawMessage) Args {
	if len(elems) == 0 {
		return Args{}
	}
	return Args{l: &argList{elems: elems, split: true}}
}

// Len returns the number of arguments.
func (a Args) Len() int {
	if a.l == nil {
		return 0
	}
	a.l.ensureSplit()
	return len(a.l.elems)
}

// Decode unmarshals argument i into v.
func (a Args) Decode(i int, v any) error {
	if a.l != nil {
		a.l.ensureSplit()
	}
	if a.l == nil || i < 0 || i >= len(a.l.elems) {
		return fmt.Errorf("rpc: argument %d out of range (%d args)", i, a.Len())
	}
	return unmarshal(a.l.elems[i], v)
}

// String returns argument i as a string (empty on mismatch). A string
// the lexer reads verbatim (Lexer.RawString: no escapes, valid UTF-8) is
// copied straight out of the element; anything else takes Decode, so the
// semantics cannot diverge.
func (a Args) String(i int) string {
	if a.l != nil {
		a.l.ensureSplit()
		if i >= 0 && i < len(a.l.elems) {
			lex := llenc.Lexer{Data: a.l.elems[i]}
			if s, ok := lex.RawString(); ok && lex.End() {
				return string(s)
			}
		}
	}
	var s string
	a.Decode(i, &s) //nolint:errcheck // zero value on mismatch is the contract
	return s
}

// Int returns argument i as an int (zero on mismatch). Integer literals
// parse without encoding/json.
func (a Args) Int(i int) int {
	if a.l != nil {
		a.l.ensureSplit()
		if i >= 0 && i < len(a.l.elems) {
			lex := llenc.Lexer{Data: a.l.elems[i]}
			if v, ok := lex.Int(); ok && lex.End() {
				return v
			}
		}
	}
	var n int
	a.Decode(i, &n) //nolint:errcheck
	return n
}

// Result is a call's decoded return payload.
type Result json.RawMessage

// Decode unmarshals the result into v.
func (r Result) Decode(v any) error {
	if len(r) == 0 {
		return errors.New("rpc: empty result")
	}
	return unmarshal([]byte(r), v)
}

// Handler executes one remote procedure. Handlers run as tasks and may
// block (issue nested RPCs, sleep, perform I/O). The Args value is only
// valid until the handler returns; see Args.
type Handler func(args Args) (any, error)

// Server dispatches incoming calls to registered handlers.
type Server struct {
	ctx *core.AppContext

	// handlers is a short ordered list, not a map: a server registers a
	// handful of methods, and at memory-plane scale a per-instance map's
	// header and buckets outweigh the entries. Linear scan with a
	// non-allocating bytes==string compare is also at least as fast at
	// these sizes. The RWMutex stays: Register may race serving under
	// LiveRuntime.
	mu       sync.RWMutex
	handlers []namedHandler

	ln  transport.Listener
	ins *Instruments // shared noInstruments when disabled; never nil
}

// namedHandler is one registered method.
type namedHandler struct {
	name string
	h    Handler
}

// pingHandler serves the reserved ping method; shared by every server.
func pingHandler(Args) (any, error) { return "pong", nil }

// NewServer returns a server bound to the instance context. The reserved
// ping method is pre-registered.
func NewServer(ctx *core.AppContext) *Server {
	// Capacity 6 covers ping plus the handful of methods the bundled
	// protocols register (pastry's five is the widest); an outlier grows.
	return &Server{ctx: ctx, ins: &noInstruments, handlers: append(make([]namedHandler, 0, 6), namedHandler{pingMethod, pingHandler})}
}

// Register installs a handler under name, replacing any previous one. It
// is safe to call while the server is serving.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	for i := range s.handlers {
		if s.handlers[i].name == name {
			s.handlers[i].h = h
			s.mu.Unlock()
			return
		}
	}
	s.handlers = append(s.handlers, namedHandler{name, h})
	s.mu.Unlock()
}

// handler looks up a method under the read lock.
func (s *Server) handler(name string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.handlers {
		if s.handlers[i].name == name {
			return s.handlers[i].h, true
		}
	}
	return nil, false
}

// Start listens on port (the paper's rpc.server(n.port)) and serves calls
// until the server or instance is closed.
func (s *Server) Start(port int) error {
	ln, err := s.ctx.Node().Listen(port)
	if err != nil {
		return fmt.Errorf("rpc: listen: %w", err)
	}
	s.ln = ln
	s.ctx.Track(ln)
	// One spawn installs the accept loop; on the simulated network it
	// arms a callback and ends, so an idle listener parks no task.
	s.ctx.Go(func() { transport.Serve(ln, s.ctx.Blocking, s.serve) })
	return nil
}

// Addr returns the bound address (zero before Start).
func (s *Server) Addr() transport.Addr {
	if s.ln == nil {
		return transport.Addr{}
	}
	return s.ln.Addr()
}

// Close stops accepting calls.
func (s *Server) Close() error {
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// serverConn is the whole per-connection state of a served connection —
// the socket, the reply writer's state and the frame reader, embedded by
// value — so an idle served connection costs one small allocation. The
// framing writer and the reply queues exist only while replies are being
// written (a pooled replyFlush). It is its reader's sink.
type serverConn struct {
	s    *Server
	conn transport.Conn

	// Reply batching: finishing handlers enqueue on the busy period's
	// flush under a plain mutex and return; the task that finds flush nil
	// becomes the flusher and drains everything queued behind it — the
	// same coalescing the controller's pipelined Submit uses. The mutex
	// is never held across Encode (which blocks in virtual time), so
	// enqueuing never parks a task; live, the flusher yields the instance
	// baton across the batch write, so a slow receiver cannot stall the
	// instance's other tasks or deadlock against its read loop.
	mu    sync.Mutex
	flush *replyFlush // the busy period's writer and queues; nil while idle

	fr llenc.FrameReader
}

// serve tracks an accepted connection and starts its frame reader
// (llenc.FrameReader.Run: on the simulated network the task arms the
// connection as the socket's wake callback and ends, so an idle served
// connection holds no goroutine).
func (s *Server) serve(conn transport.Conn) {
	s.ctx.Track(conn)
	llenc.Go(s.ctx.Go, &serverConn{s: s, conn: conn})
}

// Readable continues sc's frame reader (llenc.FrameSink).
func (sc *serverConn) Readable() { sc.fr.Run(sc.conn, sc, sc.s.ctx.Blocking) }

// OnEnd ends the connection. serve tracked it; the server closes it
// itself, so it untracks it too — see core.AppContext.Track.
func (sc *serverConn) OnEnd(error) {
	sc.s.ctx.Untrack(sc.conn)
	sc.conn.Close()
}

// OnFrame processes one request frame and reports whether the connection
// should keep serving. It may run inside an event callback, so it never
// blocks: handlers and error replies run as their own tasks.
func (sc *serverConn) OnFrame(payload []byte) bool {
	s := sc.s
	s.ins.Served.Inc()
	s.ins.BytesIn.Add(uint64(llenc.HeaderSize + len(payload)))
	var id uint64
	var h Handler
	var hok bool
	var method string
	var args Args
	if req, ok := parseRequest(payload); ok {
		id = req.ID
		s.mu.RLock()
		for i := range s.handlers {
			if s.handlers[i].name == string(req.RawMethod) { // non-allocating compare
				h, hok = s.handlers[i].h, true
				break
			}
		}
		s.mu.RUnlock()
		if !hok {
			method = string(req.RawMethod)
		}
		args = newArgsRaw(req.RawArgs)
	} else {
		// encoding/json fallback: frames the fast parser declined
		// (escaped method names, odd whitespace, hostile input).
		var req struct {
			ID     uint64          `json:"id"`
			Method string          `json:"m"`
			Args   json.RawMessage `json:"a"`
		}
		if err := json.Unmarshal(payload, &req); err != nil {
			return false // framing is broken; drop the connection
		}
		if len(req.Args) > 0 {
			var elems []json.RawMessage
			if err := json.Unmarshal(req.Args, &elems); err != nil {
				s.errReply(sc, response{ID: req.ID, Err: "rpc: malformed arguments"})
				return true
			}
			args = newArgsSplit(elems)
		}
		id, method = req.ID, req.Method
		h, hok = s.handler(method)
	}
	if !hok {
		args.release()
		s.errReply(sc, response{ID: id, Err: fmt.Sprintf("rpc: unknown method %q", method)})
		return true
	}
	// Handlers run as their own task so they may block; the connection
	// keeps serving other requests meanwhile. The dispatch rides a
	// pooled job (one closure per pooled object, ever) so steady-state
	// serving allocates no per-request bookkeeping.
	j := jobPool.Get().(*reqJob)
	j.sc, j.id, j.h, j.args = sc, id, h, args
	s.ctx.Go(j.run)
	return true
}

// errReply writes a server-side error response (unknown method, malformed
// arguments — paths no healthy protocol traffic takes) from a spawned
// task: OnFrame must not block in the reply writer.
func (s *Server) errReply(sc *serverConn, resp response) {
	s.ctx.Go(func() { s.reply(sc, resp) })
}

// reqJob carries one dispatched request into its handler task.
type reqJob struct {
	sc   *serverConn
	id   uint64
	h    Handler
	args Args
	run  func()
}

var jobPool sync.Pool

func init() {
	jobPool.New = func() any {
		j := &reqJob{}
		j.run = func() { j.exec() }
		return j
	}
}

func (j *reqJob) exec() {
	sc, id, h, args := j.sc, j.id, j.h, j.args
	j.sc, j.h, j.args = nil, nil, Args{}
	jobPool.Put(j)

	resp := response{ID: id}
	result, err := h(args)
	if err != nil {
		resp.Err = err.Error()
	} else if result != nil {
		bp := valueScratch.Get().(*[]byte)
		raw, merr := appendValue((*bp)[:0], result)
		if merr != nil {
			resp.Err = "rpc: unserializable result: " + merr.Error()
			releaseScratch(bp, raw)
		} else {
			resp.Result, resp.scratch = raw, bp
		}
	}
	// The result is encoded (copied) above into scratch that rides the
	// response until its reply batch is framed, so the pooled argument
	// buffer can be recycled even if the handler returned bytes aliasing it.
	args.release()
	sc.s.reply(sc, resp)
}

// replyFlush is one busy period of a connection's reply writer: the
// framing writer, the queue finishing handlers append to and the batch the
// flusher is writing. It is pooled, so a connection holds it only while
// replies are going out, and the pool keeps the batch capacity a lone
// reply would otherwise allocate each time.
type replyFlush struct {
	w     llenc.Writer
	queue []response // replies waiting behind the batch
	batch []response // the batch being written (flusher-only)
	run   func()     // writes batch; one closure per pooled object, ever
}

var replyFlushes = sync.Pool{New: func() any {
	f := &replyFlush{}
	f.run = f.writeBatch
	return f
}}

func (f *replyFlush) writeBatch() {
	for i := range f.batch {
		// A dead conn is detected by the read loop; later frames
		// just fail the same way.
		r := &f.batch[i]
		f.w.Encode(r) //nolint:errcheck
		if r.scratch != nil {
			releaseScratch(r.scratch, r.Result)
		}
		*r = response{} // drop Result references
	}
}

func (s *Server) reply(sc *serverConn, resp response) {
	sc.mu.Lock()
	if f := sc.flush; f != nil {
		f.queue = append(f.queue, resp)
		sc.mu.Unlock()
		return
	}
	f := replyFlushes.Get().(*replyFlush)
	sc.flush = f
	f.w.Reset(sc.conn)
	f.queue = append(f.queue, resp)
	for len(f.queue) > 0 {
		f.batch, f.queue = f.queue, f.batch[:0]
		sc.mu.Unlock()
		sent := f.w.Bytes() // the pooled writer's tally spans its borrowers
		s.ctx.Blocking(f.run)
		s.ins.BytesOut.Add(f.w.Bytes() - sent)
		sc.mu.Lock()
	}
	sc.flush = nil
	sc.mu.Unlock()
	f.batch = f.batch[:0] // writeBatch cleared it; nothing refers to it now
	f.w.Reset(nil)
	replyFlushes.Put(f)
}
