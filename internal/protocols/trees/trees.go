// Package trees implements cooperative content dissemination over
// parallel n-ary distribution trees, the protocol of §5.7 / Fig. 13. The
// content is split into blocks; block b is pushed down tree (b mod k),
// SplitStream-style: every node is an inner member of one tree and a leaf
// in the others, so each node's uplink is used by exactly one tree.
//
// Two forwarding policies are provided, matching the paper's comparison:
// SPLAY nodes forward a block to their children in parallel, while the
// CRCP baseline (a native C implementation) sends to children
// sequentially. Under saturated symmetric links this changes the shape of
// the completion curve but not the completion time of the last peer.
package trees

import (
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Config parameterizes a dissemination session. Node 0 is the source; it
// feeds the root of every tree.
type Config struct {
	Nodes      int  // participants, including the source
	Fanout     int  // n-ary trees
	Trees      int  // number of parallel trees (k)
	FileSize   int  // bytes
	BlockSize  int  // bytes
	Sequential bool // CRCP mode: send to children one after another
	Port       int
}

// Validate fills defaults and checks consistency.
func (c *Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("trees: need at least two nodes")
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Trees <= 0 {
		c.Trees = 2
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 128 << 10
	}
	if c.FileSize <= 0 {
		return fmt.Errorf("trees: empty file")
	}
	if c.Port == 0 {
		c.Port = 7000
	}
	return nil
}

// NumBlocks returns the block count for the configuration.
func (c *Config) NumBlocks() int {
	return (c.FileSize + c.BlockSize - 1) / c.BlockSize
}

// BuildTrees computes, for every tree, each member's children. Member 0
// (the source) is the root of every tree; the remaining members are
// arranged so that node i is an inner node only in tree i mod k
// (SplitStream's "inner member in one tree, leaf in the others").
func BuildTrees(nodes, fanout, trees int) [][][]int {
	children := make([][][]int, trees)
	for t := 0; t < trees; t++ {
		// Order the non-source members: those designated inner for this
		// tree first (they occupy the top positions), the rest below.
		var order []int
		for i := 1; i < nodes; i++ {
			if i%trees == t {
				order = append(order, i)
			}
		}
		for i := 1; i < nodes; i++ {
			if i%trees != t {
				order = append(order, i)
			}
		}
		ch := make([][]int, nodes)
		if len(order) > 0 {
			ch[0] = []int{order[0]}
		}
		for p := range order {
			for c := 1; c <= fanout; c++ {
				childPos := p*fanout + c
				if childPos < len(order) {
					ch[order[p]] = append(ch[order[p]], order[childPos])
				}
			}
		}
		children[t] = ch
	}
	return children
}

// block is one framed content unit.
type block struct {
	Tree  int    `json:"t"`
	Index int    `json:"i"`
	Data  []byte `json:"d"`
}

// Session is one running dissemination: per-node state plus global
// completion results (written in virtual time by node tasks).
type Session struct {
	cfg      Config
	children [][][]int
	ctxs     []*core.AppContext

	// Completions[i] is the time node i finished (zero while pending).
	Completions []time.Time
	start       time.Time
	completed   int
}

// NewSession prepares a dissemination over the given per-node contexts
// (ctxs[0] is the source).
func NewSession(cfg Config, ctxs []*core.AppContext) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ctxs) != cfg.Nodes {
		return nil, fmt.Errorf("trees: %d contexts for %d nodes", len(ctxs), cfg.Nodes)
	}
	return &Session{
		cfg:         cfg,
		children:    BuildTrees(cfg.Nodes, cfg.Fanout, cfg.Trees),
		ctxs:        ctxs,
		Completions: make([]time.Time, cfg.Nodes),
	}, nil
}

// Completed reports how many nodes have the whole file.
func (s *Session) Completed() int { return s.completed }

// Start launches every participant and then the source. Completion times
// accumulate in s.Completions as the simulation runs.
func (s *Session) Start() error {
	s.start = s.ctxs[0].Now()
	for i := 1; i < s.cfg.Nodes; i++ {
		n := newNode(s, i)
		if err := n.listen(); err != nil {
			return err
		}
	}
	src := newNode(s, 0)
	src.got = s.cfg.NumBlocks() // the source has everything
	s.ctxs[0].Go(src.pushSource)
	return nil
}

// node is one participant's dissemination state.
type node struct {
	s    *Session
	idx  int
	ctx  *core.AppContext
	got  int
	have []bool

	// outbox per (tree, child): a dedicated writer task drains it so
	// parallel forwarding interleaves naturally on the uplink.
	writers map[string]*childWriter
}

func newNode(s *Session, idx int) *node {
	return &node{
		s:       s,
		idx:     idx,
		ctx:     s.ctxs[idx],
		have:    make([]bool, s.cfg.NumBlocks()),
		writers: make(map[string]*childWriter),
	}
}

func (n *node) addr(i int) transport.Addr {
	return transport.Addr{Host: n.s.ctxs[i].Job.Me.Host, Port: n.s.cfg.Port}
}

func (n *node) listen() error {
	l, err := n.ctx.Node().Listen(n.s.cfg.Port)
	if err != nil {
		return err
	}
	n.ctx.Track(l)
	n.ctx.Go(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Tracked so Kill closes it mid-stream; once the stream ends
			// on its own the node hangs up itself, so it untracks too
			// (core.AppContext.Track). One line: tab1 pins this package's
			// line count.
			n.ctx.Track(conn)
			n.ctx.Go(func() { n.receive(conn); n.ctx.Untrack(conn); conn.Close() })
		}
	})
	return nil
}

func (n *node) receive(conn transport.Conn) {
	dec := llenc.NewReader(conn)
	for {
		var b block
		if err := dec.Decode(&b); err != nil {
			return
		}
		n.onBlock(b)
	}
}

func (n *node) onBlock(b block) {
	if b.Index < 0 || b.Index >= len(n.have) || n.have[b.Index] {
		return
	}
	n.have[b.Index] = true
	n.got++
	if n.got == n.s.cfg.NumBlocks() && n.s.Completions[n.idx].IsZero() {
		n.s.Completions[n.idx] = n.ctx.Now()
		n.s.completed++
	}
	n.forward(b)
}

// forward pushes a block to this node's children in the block's tree.
func (n *node) forward(b block) {
	kids := n.s.children[b.Tree][n.idx]
	if len(kids) == 0 {
		return
	}
	if n.s.cfg.Sequential {
		// CRCP: one writer per tree sends to each child in turn.
		w := n.writer(fmt.Sprintf("t%d", b.Tree), kids)
		w.enqueue(b)
		return
	}
	// SPLAY: an independent writer per child; sends proceed in parallel.
	for _, kid := range kids {
		w := n.writer(fmt.Sprintf("t%d-c%d", b.Tree, kid), []int{kid})
		w.enqueue(b)
	}
}

// pushSource streams the file: block b down tree b mod k, round-robin.
func (n *node) pushSource() {
	total := n.s.cfg.NumBlocks()
	for i := 0; i < total; i++ {
		size := n.s.cfg.BlockSize
		if rem := n.s.cfg.FileSize - i*n.s.cfg.BlockSize; rem < size {
			size = rem
		}
		b := block{Tree: i % n.s.cfg.Trees, Index: i, Data: make([]byte, size)}
		n.forward(b)
	}
}

// childWriter owns the connections to a set of children and drains a FIFO
// of blocks toward them.
type childWriter struct {
	n     *node
	kids  []int
	queue []block
	wake  core.Waiter
	conns map[int]*llenc.Writer
}

func (n *node) writer(key string, kids []int) *childWriter {
	if w, ok := n.writers[key]; ok {
		return w
	}
	w := &childWriter{n: n, kids: kids, conns: make(map[int]*llenc.Writer)}
	n.writers[key] = w
	n.ctx.Go(w.run)
	return w
}

func (w *childWriter) enqueue(b block) {
	w.queue = append(w.queue, b)
	if w.wake != nil {
		w.wake.Wake(nil)
		w.wake = nil
	}
}

func (w *childWriter) conn(kid int) (*llenc.Writer, error) {
	if c, ok := w.conns[kid]; ok {
		return c, nil
	}
	conn, err := w.n.ctx.Node().Dial(w.n.addr(kid), time.Minute)
	if err != nil {
		return nil, err
	}
	w.n.ctx.Track(conn)
	enc := llenc.NewWriter(conn)
	w.conns[kid] = enc
	return enc, nil
}

func (w *childWriter) run() {
	for !w.n.ctx.Killed() {
		if len(w.queue) == 0 {
			w.wake = w.n.ctx.NewWaiter()
			w.wake.Wait()
			continue
		}
		b := w.queue[0]
		w.queue = w.queue[1:]
		for _, kid := range w.kids {
			enc, err := w.conn(kid)
			if err != nil {
				continue
			}
			enc.Encode(b) //nolint:errcheck // dead children just miss blocks
		}
	}
}
