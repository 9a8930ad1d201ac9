package rpc

import (
	"encoding/json"
	"fmt"
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
	// Fault, when set, is consulted per call with the destination and
	// method: a drop verdict makes the request vanish (the call fails by
	// timeout, the paper's library-level lossy link); a delay stalls it
	// before sending. NewClient takes it from the instance's context
	// (core.Grant); nil — no fault plan — adds nothing to any schedule.
	Fault func(to transport.Addr, method string) (drop bool, delay time.Duration)

	// mu guards the pool and every peerConn's mutable state under
	// LiveRuntime, where caller tasks and read loops are real
	// goroutines. It is held only across memory operations — never a
	// dial, an encode, or a waiter Wait — so the cooperative event
	// order in simulation is untouched.
	// peers is the connection pool as a short slice scanned by address:
	// a protocol instance talks to a handful of neighbours, and at
	// memory-plane scale a per-client map costs more than its entries.
	mu      sync.Mutex
	peers   []*peerConn
	ins     *Instruments                    // shared noInstruments when disabled; never nil
	backoff faults.Backoff                  // redial pacing; zero = disabled
	redials map[transport.Addr]*redialState // destinations under backoff only

	// deadPeers marks destinations whose pooled connection failed, so
	// the next dial there counts as a redial. Entries are removed by
	// that dial — unlike the dial-history map it replaces, which kept
	// one record per destination ever dialed for the client's lifetime.
	// Allocated only when redials are instrumented.
	deadPeers map[transport.Addr]struct{}
}

// redialState is one destination's backoff clock. An entry exists only
// while the destination is failing: it is created on a failed dial and
// evicted by the next successful one, so a healthy steady state holds
// no per-destination records (the fabric's no-leak invariant).
type redialState struct {
	fails     int       // consecutive dial failures
	notBefore time.Time // earliest next dial under backoff
}

// NewClient returns a client with the paper's default two-minute timeout
// and the fault filter the instance's host granted.
func NewClient(ctx *core.AppContext) *Client {
	return &Client{ctx: ctx, Timeout: DefaultTimeout, Fault: ctx.RPCFault(), ins: &noInstruments}
}

// findPeer returns the pooled connection to the destination, or nil.
// Caller holds c.mu.
func (c *Client) findPeer(to transport.Addr) *peerConn {
	for _, p := range c.peers {
		if p.to == to {
			return p
		}
	}
	return nil
}

// addPeer pools pc, replacing any previous connection to the same
// destination (the exact semantics of the map assignment it replaces).
// Caller holds c.mu.
func (c *Client) addPeer(pc *peerConn) {
	for i := range c.peers {
		if c.peers[i].to == pc.to {
			c.peers[i] = pc
			return
		}
	}
	c.peers = append(c.peers, pc)
}

// removePeer drops p from the pool if it is still pooled there. Matching
// by connection (not address) means a failed connection can never evict
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
	if c.Fault != nil {
		drop, delay := c.Fault(to, method)
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
	pc, err := c.peer(to, timeout)
	if err != nil {
		return nil, err
	}
	remaining := timeout - c.ctx.Now().Sub(start)
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
// needed.
func (c *Client) peer(to transport.Addr, timeout time.Duration) (*peerConn, error) {
	c.mu.Lock()
	pc := c.findPeer(to)
	if pc != nil && !pc.broken {
		if pc.ready {
			c.mu.Unlock()
			return pc, nil
		}
		c.mu.Unlock()
		// Another task is dialing; wait for the verdict.
		w := c.ctx.NewWaiter()
		w.WakeAfter(timeout, error(ErrTimeout))
		c.mu.Lock()
		switch {
		case pc.broken:
			// The dial failed while we armed: consume our waiter
			// deterministically (it must reach Wait before recycling)
			// and report the verdict.
			err := pc.err
			c.mu.Unlock()
			w.Wake(err)
			w.Wait() //nolint:errcheck
			return nil, err
		case pc.ready:
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
			for i := range pc.pending {
				if pc.pending[i].w == w {
					pc.pending = append(pc.pending[:i], pc.pending[i+1:]...)
					break
				}
			}
			c.mu.Unlock()
			return nil, v.(error)
		}
		return pc, nil
	}
	pc = newPeerConn(c, to)
	c.addPeer(pc)
	var wait time.Duration
	if c.ins.Redials != nil {
		// A pooled peer to this destination died since last use: this
		// dial replaces it, which is what Redials counts. Consuming the
		// mark here keeps the set bounded by currently-dead peers.
		if _, dead := c.deadPeers[to]; dead {
			delete(c.deadPeers, to)
			c.ins.Redials.Inc()
		}
	}
	if rs := c.redials[to]; rs != nil {
		if now := c.ctx.Now(); now.Before(rs.notBefore) {
			wait = rs.notBefore.Sub(now)
		}
	}
	c.mu.Unlock()
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
			rs := c.redials[to]
			if rs == nil {
				if c.redials == nil {
					c.redials = make(map[transport.Addr]*redialState)
				}
				rs = &redialState{}
				c.redials[to] = rs
			}
			rs.fails++
			rs.notBefore = c.ctx.Now().Add(c.backoff.Delay(rs.fails-1, c.ctx.Rand()))
		} else {
			// Healthy again: evict the backoff record rather than zero
			// it, so repeatedly cycling destinations cannot grow the map.
			delete(c.redials, to)
		}
		c.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// peerConn multiplexes calls to one destination over one stream. It is
// the client fabric's unit of consolidation: the event frame reader embeds
// by value, the framing writer is borrowed with the pooled encJob for the
// duration of a send, and in-flight calls ride a short ordered slice
// instead of a per-connection map — an idle pooled peer is one allocation,
// not a constellation of maps, readers, writers and closures.
type peerConn struct {
	client *Client
	to     transport.Addr

	conn  transport.Conn
	wlock core.Lock // write lock, embedded; framing and encode staging ride pooled encJobs

	ready  bool
	broken bool
	err    error

	// pending holds every caller parked on this connection, in arrival
	// order. Before ready it holds dial waiters (id 0); once ready it
	// holds in-flight calls (ids ascend from 1). The phases are disjoint
	// — calls are only issued against a ready connection — so one slice
	// serves both, and a linear scan beats a map on both bytes and
	// lookup time at the couple of entries a connection ever carries.
	nextID  uint64
	pending []pendingCall

	fr llenc.FrameReader // read state, embedded; p is its sink
}

// pendingCall pairs a parked caller's waiter with its request id — 0 for
// a dial waiter, the call's id once the connection is ready.
type pendingCall struct {
	id uint64
	w  core.Waiter
}

func newPeerConn(c *Client, to transport.Addr) *peerConn {
	// The write lock is instance-bound: a task parked on it yields the
	// instance baton, so the current writer (who holds the baton inside
	// its Blocking section) can finish.
	p := &peerConn{client: c, to: to}
	c.ctx.InitLock(&p.wlock)
	return p
}

// encJob stages one request encode so it can run under ctx.Blocking with
// a closure allocated once per pooled object, not once per connection —
// a per-connection framing writer and staging fields would be dead weight
// on every idle peer. A job is borrowed under the connection's wlock for
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
		p.fail(fmt.Errorf("rpc: dial %s: %w", p.to, err))
		return
	}
	// Tracked before it is published: once ready, a racing caller (live)
	// may fail the connection, and fail must find it to untrack it.
	p.client.ctx.Track(conn)
	p.client.mu.Lock()
	p.conn = conn
	p.ready = true
	ws := p.pending // all dial waiters: no calls exist before ready
	p.pending = nil
	p.client.mu.Unlock()
	for _, pcall := range ws {
		pcall.w.Wake(nil)
	}
	// One spawn installs the embedded frame reader; on the simulated
	// network it arms a callback and ends, so an idle pooled peer holds no
	// goroutine (see llenc.FrameReader).
	p.fr.Init(conn, p, p.client.ctx.Blocking)
	p.client.ctx.Go(p.fr.Run)
}

// lastErr reads the connection's verdict under the client lock.
func (p *peerConn) lastErr() error {
	p.client.mu.Lock()
	defer p.client.mu.Unlock()
	return p.err
}

// fail marks the connection dead and propagates the error to every waiter.
func (p *peerConn) fail(err error) {
	c := p.client
	c.mu.Lock()
	if p.broken {
		c.mu.Unlock()
		return
	}
	p.broken = true
	p.err = err
	c.removePeer(p)
	if c.ins.Redials != nil {
		// Mark the destination so the dial that replaces this
		// connection counts as a redial (see Client.deadPeers).
		if c.deadPeers == nil {
			c.deadPeers = make(map[transport.Addr]struct{})
		}
		c.deadPeers[p.to] = struct{}{}
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
		p.fail(fmt.Errorf("rpc: connection to %s lost: %w", p.to, err))
	}
}

// OnFrame processes one response frame, waking the pending caller; false
// means the connection is dead (and already failed).
func (p *peerConn) OnFrame(payload []byte) bool {
	p.client.ins.BytesIn.Add(uint64(llenc.HeaderSize + len(payload)))
	resp := respPool.Get().(*response)
	if !resp.parseJSON(payload) {
		*resp = response{}
		if err := json.Unmarshal(payload, resp); err != nil {
			putResp(resp)
			p.fail(fmt.Errorf("rpc: connection to %s lost: %w", p.to, err))
			return false
		}
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
	p.wlock.Lock()
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
	p.wlock.Unlock()
	if err != nil {
		p.client.mu.Lock()
		p.takePending(req.ID)
		p.client.mu.Unlock()
		p.fail(fmt.Errorf("rpc: send to %s: %w", p.to, err))
		return false
	}
	return true
}

func (p *peerConn) call(timeout time.Duration, method string, args []any) (Result, error) {
	c := p.client
	c.mu.Lock()
	if p.broken {
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
	if p.broken {
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
