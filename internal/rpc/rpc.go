// Package rpc implements SPLAY's RPC library: named remote procedures with
// transparent JSON serialization over stream transports, framed by llenc.
//
// The API mirrors the paper's usage. A server registers handlers by name;
// clients invoke them with positional arguments. Call is the paper's
// rpc.call; errors (including timeouts, the paper's rpc.a_call status
// return) come back as Go errors. Ping is the paper's rpc.ping.
//
// Clients keep a small pool of connections, multiplexing concurrent calls
// to one destination over a single stream; SetPooling(false) disables the
// pool for ablation experiments.
//
// The message plane is built for throughput: envelopes ride the
// hand-rolled fast codec in fast.go (byte-identical to encoding/json),
// the values inside them ride the same contract when their type has a
// codec, argument arrays decode lazily from pooled buffers, and replies
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

// String returns argument i as a string (empty on mismatch). Plain
// ASCII strings with no escapes are sliced straight out of the element;
// anything else (escapes, non-ASCII that json would re-validate) takes
// the encoding/json path so the semantics cannot diverge.
func (a Args) String(i int) string {
	if a.l != nil {
		a.l.ensureSplit()
		if i >= 0 && i < len(a.l.elems) {
			e := a.l.elems[i]
			if len(e) >= 2 && e[0] == '"' && asciiPlain(e[1:len(e)-1]) && e[len(e)-1] == '"' {
				return string(e[1 : len(e)-1])
			}
		}
	}
	var s string
	a.Decode(i, &s) //nolint:errcheck // zero value on mismatch is the contract
	return s
}

// asciiPlain reports printable ASCII with no quotes or escapes — bytes
// encoding/json's unquote returns verbatim.
func asciiPlain(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
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

// serverConn is the whole per-connection state of a served connection:
// frame reader (which holds the connection), reply writer and framing
// encoder embedded by value, so an idle served connection costs one
// allocation instead of one per layer. It is its reader's sink.
type serverConn struct {
	s  *Server
	cw replyWriter
	fr llenc.FrameReader
}

// serve tracks an accepted connection and spawns its frame reader
// (llenc.FrameReader.Run: on the simulated network the task installs a
// callback and ends, so an idle served connection holds no goroutine).
func (s *Server) serve(conn transport.Conn) {
	s.ctx.Track(conn)
	sc := &serverConn{s: s}
	sc.cw.init(conn)
	sc.fr.Init(conn, sc, s.ctx.Blocking)
	s.ctx.Go(sc.fr.Run)
}

// OnEnd ends the connection. serve tracked it; the server closes it
// itself, so it untracks it too — see core.AppContext.Track.
func (sc *serverConn) OnEnd(error) {
	conn := sc.fr.Source().(transport.Conn)
	sc.s.ctx.Untrack(conn)
	conn.Close()
}

// OnFrame processes one request frame and reports whether the connection
// should keep serving. It may run inside an event callback, so it never
// blocks: handlers and error replies run as their own tasks.
func (sc *serverConn) OnFrame(payload []byte) bool {
	s, cw := sc.s, &sc.cw
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
				s.errReply(cw, response{ID: req.ID, Err: "rpc: malformed arguments"})
				return true
			}
			args = newArgsSplit(elems)
		}
		id, method = req.ID, req.Method
		h, hok = s.handler(method)
	}
	if !hok {
		args.release()
		s.errReply(cw, response{ID: id, Err: fmt.Sprintf("rpc: unknown method %q", method)})
		return true
	}
	// Handlers run as their own task so they may block; the connection
	// keeps serving other requests meanwhile. The dispatch rides a
	// pooled job (one closure per pooled object, ever) so steady-state
	// serving allocates no per-request bookkeeping.
	j := jobPool.Get().(*reqJob)
	j.s, j.cw, j.id, j.h, j.args = s, cw, id, h, args
	s.ctx.Go(j.run)
	return true
}

// errReply writes a server-side error response (unknown method, malformed
// arguments — paths no healthy protocol traffic takes) from a spawned
// task: OnFrame must not block in the reply writer.
func (s *Server) errReply(cw *replyWriter, resp response) {
	s.ctx.Go(func() { s.reply(cw, resp) })
}

// reqJob carries one dispatched request into its handler task.
type reqJob struct {
	s    *Server
	cw   *replyWriter
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
	s, cw, id, h, args := j.s, j.cw, j.id, j.h, j.args
	j.s, j.cw, j.h, j.args = nil, nil, nil, Args{}
	jobPool.Put(j)

	resp := response{ID: id}
	result, err := h(args)
	if err != nil {
		resp.Err = err.Error()
	} else if result != nil {
		raw, merr := marshalValue(result)
		if merr != nil {
			resp.Err = "rpc: unserializable result: " + merr.Error()
		} else {
			resp.Result = raw
		}
	}
	// The result is encoded (copied) above, so the pooled argument
	// buffer can be recycled even if the handler returned bytes
	// aliasing it.
	args.release()
	s.reply(cw, resp)
}

// replyWriter batches responses onto one connection. Finishing handlers
// enqueue under a plain mutex and return; the task that finds the writer
// idle becomes the flusher and drains everything queued behind it — the
// same coalescing the controller's pipelined Submit uses. The mutex is
// never held across Encode (which blocks in virtual time), so enqueuing
// never parks a task; live, the flusher yields the instance baton across
// the batch write (writeBatch is built once per connection), so a slow
// receiver cannot stall the instance's other tasks or deadlock against
// its read loop.
type replyWriter struct {
	enc        llenc.Writer
	writeBatch func() // flushBatch, bound once; run under ctx.Blocking

	mu       sync.Mutex
	queue    []response
	wbatch   []response // the flusher's current batch (flusher-only)
	flushing bool
}

// init points the writer at conn; the zero replyWriter embeds by value
// in per-connection state (serverConn) with no allocation of its own.
func (cw *replyWriter) init(conn transport.Conn) {
	cw.enc.Reset(conn)
	cw.writeBatch = cw.flushBatch
}

func (cw *replyWriter) flushBatch() {
	for i := range cw.wbatch {
		// A dead conn is detected by the read loop; later frames
		// just fail the same way.
		cw.enc.Encode(&cw.wbatch[i]) //nolint:errcheck
		cw.wbatch[i] = response{}    // drop Result references
	}
}

// oneReply pools the backing the flusher queues its own reply on: a lone
// reply finding the writer idle, the common case, allocates nothing and
// a connection still keeps no batch capacity between busy periods.
var oneReply = sync.Pool{New: func() any { return new([1]response) }}

func (s *Server) reply(cw *replyWriter, resp response) {
	cw.mu.Lock()
	if cw.flushing {
		cw.queue = append(cw.queue, resp)
		cw.mu.Unlock()
		return
	}
	cw.flushing = true
	first := oneReply.Get().(*[1]response)
	cw.queue = append(first[:0], resp)
	var spare []response // recycled batch backing, scoped to this busy period
	for len(cw.queue) > 0 {
		cw.wbatch = cw.queue
		cw.queue = spare[:0]
		cw.mu.Unlock()
		sent := cw.enc.Bytes() // the flusher is the writer's only user
		s.ctx.Blocking(cw.writeBatch)
		s.ins.BytesOut.Add(cw.enc.Bytes() - sent)
		cw.mu.Lock()
		spare = cw.wbatch[:0]
		cw.wbatch = nil
	}
	cw.flushing = false
	// Drop the backing between busy periods: at memory-plane scale the
	// per-connection high-water batch capacity dwarfs the occasional
	// re-allocation when the next burst arrives.
	cw.queue = nil
	cw.mu.Unlock()
	oneReply.Put(first) // flushBatch cleared it; nothing refers to it now
}
