package metrics

import (
	"math"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/transport"
)

// Aggregator is the controller-side half of the observability plane:
// it accepts reporter streams, authenticates them by key exactly like
// the paper's log collector, and merges each node's delta reports into
// live population views — merged counter totals, per-node gauge
// values, and summed histogram buckets that rank statistics read
// through stats.Sorted. Everything a query surface needs (the platform's
// /metrics route, the obsplane experiment's in-flight rows) comes
// from one snapshot under one mutex, with deterministic iteration
// order so simulated runs stay bit-stable.
type Aggregator struct {
	ln    transport.Listener
	spawn func(fn func())

	mu          sync.Mutex
	keys        map[string]bool
	nodes       map[string]string // canonical node-name table
	nodeOrder   []string
	series      map[string]*series
	seriesOrder []string
	frames      uint64
	bytes       uint64
}

// stream is the aggregator's per-connection state — the reporter's
// id→series dictionary and its last sequence number — and the sink of the
// frame reader that feeds it the reporter's frames. The dictionary
// belongs to the connection, not the node name — several instances on
// one daemon host each open their own stream under the shared host
// name, and each ships its own Defs exactly once. Keying the dictionary
// by node name would let the newest stream's Defs capture every
// sibling's subsequent delta frames.
type stream struct {
	a    *Aggregator
	conn transport.Conn
	defs []*series
	seq  uint64
	fr   llenc.FrameReader
}

// series is one merged instrument across the population.
type series struct {
	name    string
	kind    Kind
	total   uint64           // counters: sum of all deltas
	perNode map[string]int64 // counter running totals / gauge values by node
	buckets [NumBuckets]uint64
	sum     int64
	count   uint64
}

// NewAggregator listens on the node's port; spawn runs connection
// handlers as tasks (core.Runtime.Go, kernel.Go or `go`).
func NewAggregator(node transport.Node, port int, spawn func(fn func())) (*Aggregator, error) {
	ln, err := node.Listen(port)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		ln:     ln,
		spawn:  spawn,
		keys:   make(map[string]bool),
		nodes:  make(map[string]string),
		series: make(map[string]*series),
	}
	spawn(func() { transport.Serve(ln, nil, a.serve) })
	return a, nil
}

// Addr returns the aggregator's address.
func (a *Aggregator) Addr() transport.Addr { return a.ln.Addr() }

// Authorize registers a reporting key.
func (a *Aggregator) Authorize(key string) {
	a.mu.Lock()
	a.keys[key] = true
	a.mu.Unlock()
}

// Close stops accepting streams.
func (a *Aggregator) Close() error { return a.ln.Close() }

// serve spawns an accepted stream's frame reader.
func (a *Aggregator) serve(conn transport.Conn) {
	llenc.Go(a.spawn, &stream{a: a, conn: conn})
}

// Readable continues the stream's frame reader (llenc.FrameSink).
func (st *stream) Readable() { st.fr.Run(st.conn, st, nil) }

// OnFrame merges one report frame; an undecodable, unauthenticated or
// malformed one drops the stream.
func (st *stream) OnFrame(payload []byte) bool {
	var rep Report
	if llenc.Unmarshal(payload, &rep) != nil {
		return false
	}
	return st.a.absorb(&rep, uint64(llenc.HeaderSize+len(payload)), st)
}

func (st *stream) OnEnd(error) { st.conn.Close() }

// absorb merges one report; it reports false when the stream must be
// dropped: unknown key — checked on every frame, so a stream that
// stops presenting its key dies mid-stream — or a frame referencing ids and kinds inconsistently. Validation runs
// before any mutation, so a refused frame leaves the views untouched.
func (a *Aggregator) absorb(rep *Report, rxBytes uint64, st *stream) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.keys[rep.Key] {
		return false
	}

	node := rep.Node
	known := func(id int) *series {
		for _, d := range rep.Defs {
			if d.ID == id {
				if s, ok := a.series[d.Name]; ok {
					return s
				}
				return &series{name: d.Name, kind: d.Kind}
			}
		}
		if id >= 0 && id < len(st.defs) {
			return st.defs[id]
		}
		return nil
	}
	for i, d := range rep.Defs {
		if d.ID < 0 {
			return false
		}
		for _, e := range rep.Defs[:i] {
			if e.ID == d.ID {
				return false // duplicate id in one frame: validation and
				// apply would disagree about which def wins
			}
		}
		if s, ok := a.series[d.Name]; ok && s.kind != d.Kind {
			return false // same name, conflicting kind across nodes
		}
	}
	for _, c := range rep.C {
		if s := known(c.ID); s == nil || s.kind != KindCounter {
			return false
		}
	}
	for _, g := range rep.G {
		if s := known(g.ID); s == nil || s.kind != KindGauge {
			return false
		}
	}
	for _, h := range rep.H {
		s := known(h.ID)
		if s == nil || (s.kind != KindHistLinear && s.kind != KindHistPow2) || len(h.B)%2 != 0 {
			return false
		}
		for i := 0; i < len(h.B); i += 2 {
			if h.B[i] >= NumBuckets {
				return false
			}
		}
	}

	// Validated: apply.
	a.frames++
	a.bytes += rxBytes
	if canon, ok := a.nodes[node]; ok {
		node = canon // shared name table: drop this frame's copy
	} else {
		a.nodes[node] = node
		a.nodeOrder = append(a.nodeOrder, node)
	}
	st.seq = rep.Seq
	for _, d := range rep.Defs {
		s, ok := a.series[d.Name]
		if !ok {
			s = &series{name: d.Name, kind: d.Kind, perNode: make(map[string]int64)}
			a.series[d.Name] = s
			a.seriesOrder = append(a.seriesOrder, d.Name)
		}
		for len(st.defs) <= d.ID {
			st.defs = append(st.defs, nil)
		}
		st.defs[d.ID] = s
	}
	for _, c := range rep.C {
		s := st.defs[c.ID]
		s.total += c.D
		s.perNode[node] += int64(c.D)
	}
	for _, g := range rep.G {
		s := st.defs[g.ID]
		s.perNode[node] = g.V
	}
	for _, h := range rep.H {
		s := st.defs[h.ID]
		for i := 0; i < len(h.B); i += 2 {
			s.buckets[h.B[i]] += h.B[i+1]
			s.count += h.B[i+1]
		}
		s.sum += h.S
	}
	return true
}

// Nodes returns the number of streams seen so far.
func (a *Aggregator) Nodes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.nodes)
}

// Received reports monitoring traffic absorbed so far: accepted frames
// and their bytes on the wire (llenc headers included) — the overhead
// figure obsplane reports per node per second.
func (a *Aggregator) Received() (frames, bytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.frames, a.bytes
}

// CounterTotal returns the merged total of a counter series.
func (a *Aggregator) CounterTotal(name string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.series[name]; ok && s.kind == KindCounter {
		return s.total
	}
	return 0
}

// GaugeSum returns the sum of a gauge series' per-node values.
func (a *Aggregator) GaugeSum(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.series[name]
	if !ok || s.kind != KindGauge {
		return 0
	}
	var sum int64
	for _, n := range a.nodeOrder {
		sum += s.perNode[n]
	}
	return sum
}

// HistStats returns a histogram series' merged count and sum.
func (a *Aggregator) HistStats(name string) (count uint64, sum int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.series[name]
	if !ok || (s.kind != KindHistLinear && s.kind != KindHistPow2) {
		return 0, 0
	}
	return s.count, s.sum
}

// maxExpand caps how many samples HistSorted materializes; merged
// populations past the cap are downsampled proportionally, except that
// every non-empty bucket keeps at least one sample so tails survive.
const maxExpand = 1 << 20

// HistSorted expands a merged histogram into the pessimistic sample it
// bounds — each observation counted at its bucket's upper edge — as a
// stats.Sorted view, so population percentiles read through the same
// rank statistics the experiment harness uses everywhere else.
func (a *Aggregator) HistSorted(name string) stats.Sorted {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.series[name]
	if !ok {
		return nil
	}
	return histSortedLocked(s)
}

func histSortedLocked(s *series) stats.Sorted {
	if (s.kind != KindHistLinear && s.kind != KindHistPow2) || s.count == 0 {
		return nil
	}
	scale := uint64(1)
	if s.count > maxExpand {
		scale = (s.count + maxExpand - 1) / maxExpand
	}
	out := make(stats.Sorted, 0, s.count/scale+NumBuckets)
	for i := range s.buckets {
		if s.buckets[i] == 0 {
			continue
		}
		upper := time.Duration(BucketUpper(s.kind, i))
		// Ceiling division: every non-empty bucket keeps at least one
		// sample, so downsampling cannot erase the distribution's tail.
		for n := (s.buckets[i] + scale - 1) / scale; n > 0; n-- {
			out = append(out, upper)
		}
	}
	return out // buckets ascend, so the expansion is already sorted
}

// histQuantileLocked is the allocation-free percentile for snapshot
// polling: a nearest-rank walk over the 64 cumulative bucket counts,
// returning the same bucket upper edge HistSorted's expansion would —
// without materializing up to maxExpand samples under the mutex on
// every /metrics poll.
func histQuantileLocked(s *series, p float64) int64 {
	if s.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range s.buckets {
		cum += s.buckets[i]
		if cum >= rank {
			return BucketUpper(s.kind, i)
		}
	}
	return BucketUpper(s.kind, NumBuckets-1)
}

// HistQuantile returns a histogram series' p-th percentile as a
// nearest-rank bucket upper edge — the allocation-free surface the fault
// plane's trigger rules poll on every evaluation tick (0 when the series
// is absent or empty).
func (a *Aggregator) HistQuantile(name string, p float64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.series[name]
	if !ok || (s.kind != KindHistLinear && s.kind != KindHistPow2) {
		return 0
	}
	return histQuantileLocked(s, p)
}

// SeriesSnapshot is one merged series in a queryable snapshot.
type SeriesSnapshot struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Nodes int     `json:"nodes"`
	Total uint64  `json:"total"`           // counters: merged total
	Sum   int64   `json:"sum,omitempty"`   // gauges: summed values; hists: sample sum
	Count uint64  `json:"count,omitempty"` // hists: observations
	Mean  float64 `json:"mean,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P90   int64   `json:"p90,omitempty"`
	P99   int64   `json:"p99,omitempty"`
}

// Snapshot returns every series' merged view in first-seen order —
// the payload behind the platform's /metrics route and splayctl watch.
func (a *Aggregator) Snapshot() []SeriesSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(a.seriesOrder))
	for _, name := range a.seriesOrder {
		s := a.series[name]
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind.String()}
		switch s.kind {
		case KindCounter:
			snap.Nodes = len(s.perNode)
			snap.Total = s.total
		case KindGauge:
			snap.Nodes = len(s.perNode)
			for _, n := range a.nodeOrder {
				snap.Sum += s.perNode[n]
			}
		default:
			snap.Nodes = len(a.nodes)
			snap.Count, snap.Sum = s.count, s.sum
			if s.count > 0 {
				snap.Mean = float64(s.sum) / float64(s.count)
				snap.P50 = histQuantileLocked(s, 50)
				snap.P90 = histQuantileLocked(s, 90)
				snap.P99 = histQuantileLocked(s, 99)
			}
		}
		out = append(out, snap)
	}
	return out
}
