package metrics

// Report is one frame of the metrics wire protocol: everything that
// changed on a node since its previous report, llenc-framed and
// delta-encoded. Counters ship the increment since the last report,
// gauges ship their absolute value when it moved, histograms ship
// sparse (bucket, increment) pairs plus the sum delta. Instrument
// names travel once per stream as a dictionary (Defs) the first time a
// report mentions them; every later reference is the dense id, so a
// steady-state frame is a handful of small integers.
//
// The aggregator authenticates streams exactly like the paper's log
// collector: the first report must present a key the controller
// authorized, and a stream that stops presenting it is dropped.
type Report struct {
	Key  string      `json:"key"`
	Node string      `json:"node,omitempty"`
	Seq  uint64      `json:"seq"`
	Defs []Def       `json:"defs,omitempty"`
	C    []Delta     `json:"c,omitempty"`
	G    []GaugeVal  `json:"g,omitempty"`
	H    []HistDelta `json:"h,omitempty"`
}

// Def introduces instrument id i with its name and kind.
type Def struct {
	ID   int    `json:"i"`
	Name string `json:"n"`
	Kind Kind   `json:"k"`
}

// Delta is a counter increment since the previous report.
type Delta struct {
	ID int    `json:"i"`
	D  uint64 `json:"d"`
}

// GaugeVal is a gauge's absolute value at report time.
type GaugeVal struct {
	ID int   `json:"i"`
	V  int64 `json:"v"`
}

// HistDelta is a histogram's sparse bucket increments: B holds
// flattened (bucket index, count increment) pairs, S the sum increment.
type HistDelta struct {
	ID int      `json:"i"`
	B  []uint64 `json:"b"`
	S  int64    `json:"s,omitempty"`
}

// deltaState tracks what a stream has already shipped: how many
// dictionary entries went out and, per instrument id, the last-reported
// counter total, gauge value or histogram sum (the signed values stored
// as their bits). Histogram buckets need no memory here: they hold only
// what is not yet reported, and appendDelta drains them into pairs.
// One deltaState belongs to exactly one stream (reports carry
// increments, so streams cannot share it).
type deltaState struct {
	defsSent int
	last     []uint64
	pairs    []uint64 // drained (bucket, delta) pairs; HistDelta.B aliases it
}

// appendDelta fills rep with everything that changed in reg since st's
// last committed report and reports whether the frame carries
// anything. Counters, gauges and sums are compared against st, which
// appendDelta does not advance; histogram buckets are drained. So the
// caller must settle every build before the next one: commitDelta once
// the frame is safely on the wire, restoreDelta when the send failed —
// it hands the drained buckets back, and the deltas ride the next flush
// instead of silently dropping that period. The report's slices are
// reused across calls, and HistDelta.B aliases st.pairs.
func appendDelta(reg *Registry, st *deltaState, rep *Report) bool {
	instrs := reg.snapshot()
	rep.Defs, rep.C, rep.G, rep.H = rep.Defs[:0], rep.C[:0], rep.G[:0], rep.H[:0]
	if st.defsSent == len(instrs) {
		rep.Defs = nil // every def has shipped: let go of the backing
	}
	st.pairs = st.pairs[:0]
	for len(st.last) < len(instrs) {
		st.last = append(st.last, 0)
	}
	for id, in := range instrs {
		if id >= st.defsSent {
			rep.Defs = append(rep.Defs, Def{ID: id, Name: in.name, Kind: in.kind})
		}
		last := st.last[id]
		switch in.kind {
		case KindCounter:
			if d := in.c.Total() - last; d != 0 {
				rep.C = append(rep.C, Delta{ID: id, D: d})
			}
		case KindGauge:
			if v := in.g.Value(); v != int64(last) {
				rep.G = append(rep.G, GaugeVal{ID: id, V: v})
			}
		default: // histograms
			from := len(st.pairs)
			if st.pairs = in.h.drain(st.pairs); len(st.pairs) > from {
				rep.H = append(rep.H, HistDelta{ID: id, B: st.pairs[from:], S: in.h.Sum() - int64(last)})
			}
		}
	}
	return len(rep.C)+len(rep.G)+len(rep.H) > 0 || len(rep.Defs) > 0
}

// commitDelta applies an encoded report back onto st: the reported
// deltas — not re-read instrument totals, which other tasks may have
// advanced meanwhile — become the new last-reported counter totals,
// gauge values and histogram sums. Histogram buckets need nothing:
// the build already drained them.
func commitDelta(st *deltaState, rep *Report) {
	for _, c := range rep.C {
		st.last[c.ID] += c.D
	}
	for _, g := range rep.G {
		st.last[g.ID] = uint64(g.V)
	}
	for _, h := range rep.H {
		st.last[h.ID] += uint64(h.S)
	}
	if n := len(rep.Defs); n > 0 {
		st.defsSent = rep.Defs[n-1].ID + 1
	}
}

// restoreDelta undoes a build whose frame never reached the wire: the
// drained bucket deltas go back to their histograms.
func restoreDelta(reg *Registry, rep *Report) {
	instrs := reg.snapshot()
	for _, h := range rep.H {
		b := instrs[h.ID].h.block()
		for i := 0; i+1 < len(h.B); i += 2 {
			b[h.B[i]].Add(h.B[i+1])
		}
	}
}
