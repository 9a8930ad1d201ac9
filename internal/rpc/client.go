package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Client issues calls to remote servers. It is owned by one application
// instance; its pooled connections are tracked by the instance context and
// die with it.
type Client struct {
	ctx *core.AppContext

	// Timeout applies to Call; CallTimeout overrides it per call.
	Timeout time.Duration
	// fault, when set, is consulted per call with the destination and
	// method: a drop verdict makes the request vanish (the call fails by
	// timeout, the paper's library-level lossy link); a delay stalls it
	// before sending. NewClient takes it from the instance's context
	// (core.Grant); nil — no fault plan — adds nothing to any schedule.
	fault func(to transport.Addr, method string) (drop bool, delay time.Duration)

	// mu guards the pool and every peerConn's mutable state under
	// LiveRuntime, where caller tasks and read loops are real
	// goroutines. It is held only across memory operations — never a
	// dial, an encode, or a waiter Wait — so the cooperative event
	// order in simulation is untouched.
	// peers is the connection pool, least recently used first: a pooled
	// hit stamps its peer and moves it to the end, and every new dial
	// sweeps the front (evictIdle), closing idle ready peers while the
	// pool is over maxPooledPeers or unused for longer than maxIdle.
	// A short slice scanned by address: at ≤ 16 entries a per-client map
	// costs more than its entries. Gossip reuses a pooled peer on 3 % of
	// its calls (cyclon_churn), Chord on 98 % (chord_plain); DESIGN.md
	// ("A pool that forgets") has the measured pool sizes.
	mu      sync.Mutex
	peers   []*peerConn
	writers []parkedWriter // tasks parked on a peer's write lock, oldest first
	ins     *Instruments   // shared noInstruments when disabled; never nil
	backoff faults.Backoff // redial pacing; zero = disabled

	// failures holds one record per destination that failed recently
	// (see peerFailure). Allocated only when redials are instrumented or
	// paced by a backoff.
	failures map[transport.Addr]*peerFailure
}

// maxPooledPeers bounds a client's pool: the most recently used peers
// stay open, older idle ones are closed and redialed on their next call.
// 16 holds Chord's working set (successors, predecessor, the fingers it
// uses). Gossip, which reaches a different peer almost every round,
// keeps at most 16 sockets per node instead of one per peer it ever
// reached.
const maxPooledPeers = 16

// maxIdle is how long a pooled peer may sit unused before the next dial
// closes it, in runtime time: twice the default period of Chord's
// stabilization and of Cyclon's shuffle. Gossip's pool then holds the
// peers of its last few rounds, not the last 16 it reached.
const maxIdle = 10 * time.Second

// peerFailure is one destination's failure record: what the Redials
// count and the redial backoff need to know about it. A connection that
// fails (a lost pooled peer or a failed dial) creates or restamps it; a
// successful dial deletes it; and the pool's sweep (evictIdle) drops it
// once the last failure is older than maxIdle and its backoff expired. A
// healthy steady state, and a client whose failed destinations left for
// good, hold no records (the fabric's no-leak invariant). A destination
// failing again after its record was dropped starts its backoff over at
// the first step.
type peerFailure struct {
	at        int64 // UnixNano of the latest failure
	redial    bool  // unconsumed: the next dial within maxIdle of at counts as a redial
	fails     int   // consecutive failed dials, the backoff step
	notBefore int64 // UnixNano of the earliest next dial under backoff
}

// failed returns the destination's failure record, creating it, stamped
// at the failure instant at. Caller holds c.mu.
func (c *Client) failed(to transport.Addr, at int64) *peerFailure {
	f := c.failures[to]
	if f == nil {
		if c.failures == nil {
			c.failures = make(map[transport.Addr]*peerFailure)
		}
		f = &peerFailure{}
		c.failures[to] = f
	}
	f.at = at
	return f
}

// NewClient returns a client with the paper's default two-minute timeout
// and the fault filter the instance's host granted.
func NewClient(ctx *core.AppContext) *Client {
	return &Client{ctx: ctx, Timeout: DefaultTimeout, fault: ctx.RPCFault(), ins: &noInstruments}
}

// usePeer returns the pooled connection to the destination, or nil, and
// makes it the most recently used, stamped now. Caller holds c.mu.
func (c *Client) usePeer(to transport.Addr, now int64) *peerConn {
	for i, p := range c.peers {
		if p.to == to {
			copy(c.peers[i:], c.peers[i+1:])
			c.peers[len(c.peers)-1] = p
			p.used = now
			return p
		}
	}
	return nil
}

// removePeer drops p from the pool if it is still pooled there. Matching
// by connection (not address) means a failed connection can never drop
// its own replacement. Caller holds c.mu.
func (c *Client) removePeer(p *peerConn) {
	for i := range c.peers {
		if c.peers[i] == p {
			last := len(c.peers) - 1
			copy(c.peers[i:], c.peers[i+1:])
			c.peers[last] = nil
			c.peers = c.peers[:last]
			return
		}
	}
}

// evicted is the verdict on a peer the pool closed to make room. Only a
// call that took the peer from the pool just before the eviction can read
// it, before it sent anything, and that call redials (callInstrumented).
var evicted = &connError{op: opLost, err: errors.New("evicted from the pool")}

// evictIdle is the pool's one sweep, run at every new dial (now is the
// dial's instant). It closes the least recently used idle ready peer —
// no call in flight, no dial waiter, a free write lock — while the pool
// is over its cap or that peer was last used more than maxIdle ago. The
// pool is in recency order, so the scan stops at the first peer used
// more recently than that once the pool is within its cap: a sweep costs
// O(closed + 1). A peer still dialing or in use is never closed, so the
// pool may stay over the cap until one of them goes idle. An eviction is
// not a failure: the destination gets no failure record. The sweep also
// drops failure records older than maxIdle whose backoff expired. There
// is no timer: a client that stops dialing keeps its peers and arms
// nothing.
func (c *Client) evictIdle(now int64) {
	stale := now - int64(maxIdle)
	c.mu.Lock()
	for to, f := range c.failures {
		if f.at < stale && f.notBefore <= now {
			delete(c.failures, to)
		}
	}
	for {
		var conn transport.Conn
		over := len(c.peers) > maxPooledPeers
		for i, p := range c.peers {
			if !over && p.used >= stale {
				break
			}
			if p.conn != nil && len(p.pending) == 0 && !p.writing {
				p.err = evicted
				c.peers = slices.Delete(c.peers, i, i+1)
				conn = p.conn
				break
			}
		}
		c.mu.Unlock()
		if conn == nil {
			return
		}
		c.ctx.Untrack(conn)
		conn.Close()
		c.mu.Lock()
	}
}

// SetRedialBackoff paces repeat dials to a destination that keeps
// failing: after each failed dial the next one to the same address waits
// the schedule's (jittered) delay; a successful dial resets it. Off by
// default — enabling it is a fault-plane hardening decision, because the
// added sleeps change event schedules in simulation.
func (c *Client) SetRedialBackoff(b faults.Backoff) {
	c.mu.Lock()
	c.backoff = b
	c.mu.Unlock()
}

// Call invokes method on the server at to and decodes nothing: use the
// returned Result. It fails with ErrTimeout after the client timeout, the
// paper's a_call status semantics.
func (c *Client) Call(to transport.Addr, method string, args ...any) (Result, error) {
	return c.CallTimeout(to, c.Timeout, method, args...)
}

// CallTimeout is Call with an explicit timeout.
func (c *Client) CallTimeout(to transport.Addr, timeout time.Duration, method string, args ...any) (Result, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c.ins.Calls.Inc()
	if c.fault != nil {
		drop, delay := c.fault(to, method)
		if drop {
			// Injected loss: the request vanishes and the caller times out.
			c.ctx.Sleep(timeout)
			c.ins.Errors.Inc()
			c.ins.Timeouts.Inc()
			return nil, ErrTimeout
		}
		if delay > 0 {
			c.ctx.Sleep(delay)
		}
	}
	// The timeout budget covers the whole call, dialing included.
	start := c.ctx.Now()
	res, err := c.callInstrumented(to, timeout, start, method, args)
	if err != nil {
		c.ins.Errors.Inc()
		if err == ErrTimeout {
			c.ins.Timeouts.Inc()
		}
		return nil, err
	}
	c.ins.Latency.Observe(int64(c.ctx.Now().Sub(start)))
	return res, nil
}

// callInstrumented is CallTimeout's body behind the instrument hooks.
func (c *Client) callInstrumented(to transport.Addr, timeout time.Duration, start time.Time, method string, args []any) (Result, error) {
	for {
		res, err := c.callPeer(to, timeout, start, method, args)
		if err != evicted {
			return res, err
		}
		// The pool closed the peer between our pick and our call (another
		// task's dial, or a live goroutine's): nothing was sent, so dial
		// again within what is left of the budget.
	}
}

// callPeer makes one attempt at the call, on a pooled connection or a new
// one, within what is left of the budget that started at start.
func (c *Client) callPeer(to transport.Addr, timeout time.Duration, start time.Time, method string, args []any) (Result, error) {
	now := c.ctx.Now()
	remaining := timeout - now.Sub(start)
	if remaining <= 0 {
		return nil, ErrTimeout
	}
	pc, err := c.peer(to, now.UnixNano(), remaining)
	if err != nil {
		return nil, err
	}
	remaining = timeout - c.ctx.Now().Sub(start)
	if remaining <= 0 {
		return nil, ErrTimeout
	}
	return pc.call(remaining, method, args)
}

// Ping checks liveness (the paper's rpc.ping) and returns the round-trip
// time.
func (c *Client) Ping(to transport.Addr, timeout time.Duration) (time.Duration, error) {
	start := c.ctx.Now()
	if _, err := c.CallTimeout(to, timeout, pingMethod); err != nil {
		return 0, err
	}
	return c.ctx.Now().Sub(start), nil
}

// peer returns a live pooled connection to the destination, dialing one if
// needed; now is the caller's instant in UnixNano.
func (c *Client) peer(to transport.Addr, now int64, timeout time.Duration) (*peerConn, error) {
	c.mu.Lock()
	pc := c.usePeer(to, now)
	if pc != nil { // pooled peers carry no verdict: fail and evictIdle unpool them
		if pc.conn != nil {
			c.mu.Unlock()
			return pc, nil
		}
		c.mu.Unlock()
		// Another task is dialing; wait for the verdict.
		w := c.ctx.NewWaiter()
		w.WakeAfter(timeout, error(ErrTimeout))
		c.mu.Lock()
		switch {
		case pc.err != nil:
			// The dial failed while we armed: consume our waiter
			// deterministically (it must reach Wait before recycling)
			// and report the verdict.
			err := pc.err
			c.mu.Unlock()
			w.Wake(err)
			w.Wait() //nolint:errcheck
			return nil, err
		case pc.conn != nil:
			c.mu.Unlock()
			w.Wake(nil)
			w.Wait() //nolint:errcheck
			return pc, nil
		}
		pc.pending = append(pc.pending, pendingCall{w: w})
		c.mu.Unlock()
		if v := w.Wait(); v != nil {
			// Timed out before the dial verdict: drop our (now recycled,
			// pooled) waiter from the list so the verdict cannot touch it.
			c.mu.Lock()
			if i := slices.IndexFunc(pc.pending, func(p pendingCall) bool { return p.w == w }); i >= 0 {
				pc.pending = slices.Delete(pc.pending, i, i+1) // clears the vacated slot
			}
			c.mu.Unlock()
			return nil, v.(error)
		}
		return pc, nil
	}
	pc = &peerConn{client: c, to: to, used: now}
	c.peers = append(c.peers, pc)
	var wait time.Duration
	if f := c.failures[to]; f != nil {
		// A connection to this destination failed within maxIdle: this
		// dial replaces it, which is what Redials counts. An older
		// failure is a fresh dial's.
		if f.redial {
			f.redial = false
			if f.at >= now-int64(maxIdle) {
				c.ins.Redials.Inc()
			}
		}
		if t := c.ctx.Now().UnixNano(); t < f.notBefore {
			wait = time.Duration(f.notBefore - t)
		}
	}
	c.mu.Unlock()
	c.evictIdle(now)
	if wait > 0 {
		// Backoff: this destination failed recently; later callers park
		// as dial waiters on pc and share the verdict, so the whole
		// instance dials at the schedule's pace, not per caller.
		c.ctx.Sleep(wait)
	}
	pc.dial(timeout)
	err := pc.lastErr()
	if c.backoff.Enabled() {
		c.mu.Lock()
		if err != nil {
			t := c.ctx.Now()
			f := c.failed(to, t.UnixNano())
			f.fails++
			f.notBefore = t.Add(c.backoff.Delay(f.fails-1, c.ctx.Rand())).UnixNano()
		} else {
			// Healthy again: delete the record rather than zero it, so
			// repeatedly cycling destinations cannot grow the map.
			delete(c.failures, to)
		}
		c.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// peerConn multiplexes calls to one destination over one stream. It is
// the client fabric's unit of consolidation, and an idle pooled peer is
// one small allocation that stores each fact once: the socket once (the
// embedded frame reader is handed it per run), readiness and failure as
// the socket and the verdict themselves, the write lock as one flag. What
// only a send or a call needs — the framing writer and encode staging
// (pooled encJobs), parked writers (the client's queue) — is borrowed for
// its duration, and in-flight calls ride a short ordered slice instead of
// a per-connection map.
type peerConn struct {
	client *Client
	to     transport.Addr

	conn transport.Conn // set once the dial succeeds: the connection is ready
	err  *connError     // the verdict once the connection failed: it is broken
	used int64          // UnixNano of the dial or the latest pooled hit (usePeer)

	// pending holds every caller parked on this connection, in arrival
	// order. Before ready it holds dial waiters (id 0); once ready it
	// holds in-flight calls (ids ascend from 1). The phases are disjoint
	// — calls are only issued against a ready connection — so one slice
	// serves both, and a linear scan beats a map on both bytes and
	// lookup time at the couple of entries a connection ever carries.
	nextID  uint64
	pending []pendingCall

	writing bool              // the write lock is held (see lockWrite)
	fr      llenc.FrameReader // read state, embedded; p is its sink
}

// pendingCall pairs a parked caller's waiter with its request id — 0 for
// a dial waiter, the call's id once the connection is ready.
type pendingCall struct {
	id uint64
	w  core.Waiter
}

// parkedWriter is a task waiting for p's write lock.
type parkedWriter struct {
	p *peerConn
	w core.Waiter
}

// lockWrite takes the connection's write lock, held across one request's
// encode and socket write, and is FIFO like core.Lock: a contended writer
// parks behind the earlier ones, and its waiter yields the instance baton
// so the current writer (who holds the baton inside its Blocking section)
// can finish. The lock is one flag on the peer; parked writers queue on
// the client, so an uncontended peer — every idle one — carries no queue.
func (p *peerConn) lockWrite() {
	c := p.client
	c.mu.Lock()
	if !p.writing {
		p.writing = true
		c.mu.Unlock()
		return
	}
	w := c.ctx.NewWaiter()
	c.writers = append(c.writers, parkedWriter{p: p, w: w})
	c.mu.Unlock()
	w.Wait()
}

// unlockWrite hands the lock to p's oldest parked writer, or frees it.
func (p *peerConn) unlockWrite() {
	c := p.client
	c.mu.Lock()
	for i := 0; i < len(c.writers); {
		if c.writers[i].p != p {
			i++
			continue
		}
		w := c.writers[i].w
		c.writers = slices.Delete(c.writers, i, i+1)
		if w.Wake(nil) {
			c.mu.Unlock() // ownership transfers to the woken writer
			return
		}
	}
	p.writing = false
	c.mu.Unlock()
}

// encJob stages one request encode so it can run under ctx.Blocking with
// a closure allocated once per pooled object, not once per connection —
// a per-connection framing writer and staging fields would be dead weight
// on every idle peer. A job is borrowed under the connection's write lock for
// the duration of one send and pointed at that connection.
type encJob struct {
	w   llenc.Writer
	req request
	err error
	run func()
}

var encJobPool = sync.Pool{New: func() any {
	j := &encJob{}
	j.run = func() { j.err = j.w.Encode(&j.req) }
	return j
}}

// takePending removes and returns the waiter for id. The caller holds
// client.mu.
func (p *peerConn) takePending(id uint64) (core.Waiter, bool) {
	for i, pcall := range p.pending {
		if pcall.id == id {
			copy(p.pending[i:], p.pending[i+1:])
			p.pending[len(p.pending)-1] = pendingCall{}
			p.pending = p.pending[:len(p.pending)-1]
			return pcall.w, true
		}
	}
	return nil, false
}

func (p *peerConn) dial(timeout time.Duration) {
	var conn transport.Conn
	var err error
	// The dial may block for the whole timeout live: yield the baton.
	p.client.ctx.Blocking(func() {
		conn, err = p.client.ctx.Node().Dial(p.to, timeout)
	})
	if err != nil {
		p.fail(opDial, err)
		return
	}
	// Tracked before it is published: once ready, a racing caller (live)
	// may fail the connection, and fail must find it to untrack it.
	p.client.ctx.Track(conn)
	p.client.mu.Lock()
	p.conn = conn
	ws := p.pending // all dial waiters: no calls exist before ready
	p.pending = nil
	p.client.mu.Unlock()
	for _, pcall := range ws {
		pcall.w.Wake(nil)
	}
	// One spawn starts the embedded frame reader; on the simulated
	// network it arms p as the socket's wake callback and ends, so an idle
	// pooled peer holds no goroutine (see llenc.FrameReader).
	llenc.Go(p.client.ctx.Go, p)
}

// Readable continues p's frame reader (llenc.FrameSink).
func (p *peerConn) Readable() { p.fr.Run(p.conn, p, p.client.ctx.Blocking) }

// connError is a failed dial, lost connection or failed send toward one
// peer. Under churn most go unread — the protocol just drops the peer —
// so the text is assembled in Error, not when the connection fails.
type connError struct {
	op  uint8 // opDial, opLost or opSend: an index into connErrorText
	to  transport.Addr
	err error
}

const opDial, opLost, opSend = 0, 1, 2

var connErrorText = [...][2]string{
	opDial: {"rpc: dial ", ": "},
	opLost: {"rpc: connection to ", " lost: "},
	opSend: {"rpc: send to ", ": "},
}

func (e *connError) Error() string {
	t := connErrorText[e.op]
	return t[0] + e.to.String() + t[1] + e.err.Error()
}

func (e *connError) Unwrap() error { return e.err }

// lastErr reads the connection's verdict under the client lock.
func (p *peerConn) lastErr() error {
	p.client.mu.Lock()
	defer p.client.mu.Unlock()
	if p.err == nil {
		return nil
	}
	return p.err
}

// fail marks the connection dead — op failed with cause — and propagates
// the verdict to every waiter.
func (p *peerConn) fail(op uint8, cause error) {
	c := p.client
	c.mu.Lock()
	if p.err != nil {
		c.mu.Unlock()
		return
	}
	err := &connError{op: op, to: p.to, err: cause}
	p.err = err
	c.removePeer(p)
	if c.ins.Redials != nil || c.backoff.Enabled() {
		// Record the failure: the dial that replaces this connection
		// counts as a redial and waits out the backoff (see peerFailure).
		c.failed(p.to, c.ctx.Now().UnixNano()).redial = c.ins.Redials != nil
	}
	conn := p.conn
	pend := p.pending
	p.pending = nil
	c.mu.Unlock()
	if conn != nil {
		c.ctx.Untrack(conn)
		conn.Close()
	}
	// Arrival order: dial waiters or in-flight calls, oldest first.
	for _, pcall := range pend {
		pcall.w.Wake(err)
	}
}

// respPool recycles decoded response envelopes between the read loop and
// the callers it wakes. Result bytes are always freshly allocated (they
// are handed to the application), so only the struct is reused.
var respPool = sync.Pool{New: func() any { return new(response) }}

func putResp(r *response) {
	*r = response{}
	respPool.Put(r)
}

// OnEnd and OnFrame make peerConn the sink of its embedded frame reader.
func (p *peerConn) OnEnd(err error) {
	if err != nil {
		p.fail(opLost, err)
	}
}

// OnFrame processes one response frame, waking the pending caller; false
// means the connection is dead (and already failed).
func (p *peerConn) OnFrame(payload []byte) bool {
	p.client.ins.BytesIn.Add(uint64(llenc.HeaderSize + len(payload)))
	resp := respPool.Get().(*response)
	if err := llenc.Unmarshal(payload, resp); err != nil {
		putResp(resp)
		p.fail(opLost, err)
		return false
	}
	p.client.mu.Lock()
	w, ok := p.takePending(resp.ID)
	p.client.mu.Unlock()
	if !ok {
		putResp(resp) // response after the caller timed out
		return true
	}
	if !w.Wake(resp) {
		putResp(resp)
	}
	return true
}

// send writes the request under the connection's write lock and reports
// whether it succeeded; on failure the connection is dead and p.err
// holds the verdict. Requests are not batched the way server replies
// are: the exact park/wake sequence of callers contending for the lock
// is part of the pinned deterministic event order (TestGoldenBitForBit),
// and a client frame is written by the task that owns the call anyway.
func (p *peerConn) send(req request) bool {
	p.lockWrite()
	j := encJobPool.Get().(*encJob)
	j.w.Reset(p.conn)
	j.req = req
	// Yield the instance baton across the (live-)blocking socket write:
	// holding it would stall every other task of the instance — and
	// deadlock outright if both ends of a connection filled their TCP
	// buffers, since the read loops could never drain them.
	sent := j.w.Bytes() // the pooled writer's tally spans its borrowers
	p.client.ctx.Blocking(j.run)
	p.client.ins.BytesOut.Add(j.w.Bytes() - sent)
	err := j.err
	j.w.Reset(nil)
	j.err, j.req = nil, request{}
	encJobPool.Put(j)
	p.unlockWrite()
	if err != nil {
		p.client.mu.Lock()
		p.takePending(req.ID)
		p.client.mu.Unlock()
		p.fail(opSend, err)
		return false
	}
	return true
}

func (p *peerConn) call(timeout time.Duration, method string, args []any) (Result, error) {
	c := p.client
	c.mu.Lock()
	if p.err != nil {
		err := p.err
		c.mu.Unlock()
		return nil, err
	}
	p.nextID++
	id := p.nextID
	c.mu.Unlock()
	w := c.ctx.NewWaiter()
	w.WakeAfter(timeout, error(ErrTimeout))
	c.mu.Lock()
	if p.err != nil {
		// The connection died while we armed (live): fail fast instead
		// of inserting into a map fail() has already drained and dying
		// by timeout. The waiter is consumed deterministically.
		err := p.err
		c.mu.Unlock()
		w.Wake(err)
		w.Wait() //nolint:errcheck
		return nil, err
	}
	p.pending = append(p.pending, pendingCall{id: id, w: w})
	c.mu.Unlock()

	if !p.send(request{ID: id, Method: method, Args: args}) {
		return nil, p.lastErr()
	}

	switch v := w.Wait().(type) {
	case *response:
		errMsg, result := v.Err, v.Result
		putResp(v)
		if errMsg != "" {
			return nil, &RemoteError{Msg: errMsg}
		}
		return Result(result), nil
	case error:
		c.mu.Lock()
		p.takePending(id)
		c.mu.Unlock()
		return nil, v
	default:
		return nil, fmt.Errorf("rpc: internal: unexpected wake %T", v)
	}
}

// Marshal is a helper for handlers that want to return a raw JSON payload.
func Marshal(v any) (json.RawMessage, error) { return marshalValue(v) }

// PreEncode canonically encodes a value once for reuse as a call
// argument, the zero-rework path for arguments that never change (a
// node's own reference in Chord's notify, Pastry's join). The returned
// value marshals to exactly the same bytes as v itself, so the wire
// format is unchanged; if v cannot be encoded it is returned as-is and
// the call reports the error as before.
func PreEncode(v any) any {
	raw, err := marshalValue(v)
	if err != nil {
		return v
	}
	return raw
}
