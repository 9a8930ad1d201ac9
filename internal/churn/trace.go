package churn

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Action is a node state transition.
type Action int

const (
	// Join brings a node slot up.
	Join Action = iota
	// Leave takes a node slot down.
	Leave
)

func (a Action) String() string {
	if a == Join {
		return "join"
	}
	return "leave"
}

// Event is one trace entry: node slot `Node` joins or leaves at `At`.
type Event struct {
	At     time.Duration
	Action Action
	Node   int
}

// Trace is a time-ordered sequence of events. Node slots are small
// integers; the executor maps them onto hosts/instances.
type Trace []Event

// Sort orders the trace by time (stable on equal timestamps).
func (tr Trace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].At < tr[j].At })
}

// MaxSlot returns the highest node slot referenced (-1 for empty traces),
// which sizes the host pool an executor needs.
func (tr Trace) MaxSlot() int {
	max := -1
	for _, e := range tr {
		if e.Node > max {
			max = e.Node
		}
	}
	return max
}

// Duration returns the time of the last event.
func (tr Trace) Duration() time.Duration {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].At
}

// SpeedUp compresses the trace timeline by factor (2 maps one minute onto
// thirty seconds), the tooling §5.5 uses to raise churn rates beyond the
// original trace while preserving its structure.
func (tr Trace) SpeedUp(factor float64) Trace {
	if factor <= 0 {
		panic("churn: non-positive speed-up")
	}
	out := make(Trace, len(tr))
	for i, e := range tr {
		e.At = time.Duration(float64(e.At) / factor)
		out[i] = e
	}
	return out
}

// Amplify increases turnover while preserving the population timeline:
// with probability (factor-1) per whole unit, a session is split by a
// brief leave/rejoin at a random midpoint, so the node count is unchanged
// except for momentary dips but the join/leave rates scale with factor.
// Factor 1 returns an equivalent trace.
func (tr Trace) Amplify(factor float64, seed int64) Trace {
	if factor < 1 {
		panic("churn: amplify factor below 1")
	}
	rng := rand.New(rand.NewSource(seed))
	out := append(Trace(nil), tr...)
	opens := map[int]time.Duration{}
	sorted := append(Trace(nil), tr...)
	sorted.Sort()
	split := func(slot int, t1, t2 time.Duration) {
		extra := factor - 1
		for extra > 0 {
			if extra < 1 && rng.Float64() >= extra {
				break
			}
			if t2-t1 < 4*time.Second {
				break
			}
			// Midpoint well inside the session so the rejoin stays
			// strictly before the session's own departure.
			window := t2 - t1
			m := t1 + window/10 + time.Duration(rng.Int63n(int64(window*7/10)))
			gap := (t2 - m) / 10
			if gap > 30*time.Second {
				gap = 30 * time.Second
			}
			if gap < time.Second {
				gap = time.Second
			}
			if m+gap >= t2 {
				gap = (t2 - m) / 2
				if gap <= 0 {
					break
				}
			}
			out = append(out,
				Event{At: m, Action: Leave, Node: slot},
				Event{At: m + gap, Action: Join, Node: slot})
			t1 = m + gap // later splits stay after this rejoin
			extra--
		}
	}
	for _, e := range sorted {
		switch e.Action {
		case Join:
			opens[e.Node] = e.At
		case Leave:
			if t1, ok := opens[e.Node]; ok {
				delete(opens, e.Node)
				split(e.Node, t1, e.At)
			}
		}
	}
	// Sessions still open at trace end can be split up to the last event,
	// in slot order: split draws from rng.
	end := sorted.Duration()
	for _, slot := range slices.Sorted(maps.Keys(opens)) {
		split(slot, opens[slot], end)
	}
	out.Sort()
	return out
}

// Population returns the number of nodes alive at each bucket boundary
// and the joins/leaves per bucket — the data behind Fig. 4's plot and the
// churn panels of Fig. 11.
func (tr Trace) Population(bucket time.Duration) (pop []int, joins, leaves []int) {
	if bucket <= 0 {
		panic("churn: non-positive bucket")
	}
	sorted := append(Trace(nil), tr...)
	sorted.Sort()
	n := int(sorted.Duration()/bucket) + 1
	pop = make([]int, n+1)
	joins = make([]int, n+1)
	leaves = make([]int, n+1)
	cur := 0
	idx := 0
	for b := 0; b <= n; b++ {
		limit := time.Duration(b+1) * bucket
		for idx < len(sorted) && sorted[idx].At < limit {
			if sorted[idx].Action == Join {
				cur++
				joins[b]++
			} else {
				cur--
				leaves[b]++
			}
			idx++
		}
		pop[b] = cur
	}
	return pop, joins, leaves
}

// FromScript compiles a synthetic description into a concrete trace.
// Which nodes leave is drawn deterministically from seed; node slots are
// reused after departures, so MaxSlot approximates the peak population.
func FromScript(s *Script, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	alive := []int{} // live slots
	free := []int{}  // reusable slots
	nextSlot := 0

	takeSlot := func() int {
		if len(free) > 0 {
			s := free[len(free)-1]
			free = free[:len(free)-1]
			return s
		}
		s := nextSlot
		nextSlot++
		return s
	}
	join := func(at time.Duration) {
		slot := takeSlot()
		alive = append(alive, slot)
		tr = append(tr, Event{At: at, Action: Join, Node: slot})
	}
	leave := func(at time.Duration) {
		if len(alive) == 0 {
			return
		}
		i := rng.Intn(len(alive))
		slot := alive[i]
		alive = append(alive[:i], alive[i+1:]...)
		free = append(free, slot)
		tr = append(tr, Event{At: at, Action: Leave, Node: slot})
	}

	for _, p := range s.Phases {
		switch {
		case p.To == p.From: // instantaneous
			switch {
			case p.Stop:
				for len(alive) > 0 {
					leave(p.From)
				}
			case p.JoinN > 0:
				for i := 0; i < p.JoinN; i++ {
					join(p.From)
				}
			case p.LeavePct > 0:
				n := int(float64(len(alive))*p.LeavePct + 0.5)
				for i := 0; i < n; i++ {
					leave(p.From)
				}
			default:
				for i := 0; i < p.LeaveN; i++ {
					leave(p.From)
				}
			}
		default: // interval
			dur := p.To - p.From
			// Build the interval's operations first, then apply them in
			// time order: a churn departure must never target a slot
			// whose (drift) join lies later in the timeline.
			type op struct {
				at   time.Duration
				join bool
			}
			var ops []op
			if p.IncN > 0 {
				step := dur / time.Duration(p.IncN)
				for i := 0; i < p.IncN; i++ {
					ops = append(ops, op{p.From + time.Duration(i)*step + step/2, true})
				}
			} else if p.IncN < 0 {
				step := dur / time.Duration(-p.IncN)
				for i := 0; i < -p.IncN; i++ {
					ops = append(ops, op{p.From + time.Duration(i)*step + step/2, false})
				}
			}
			if p.ChurnPct > 0 {
				turnover := int(float64(len(alive))*p.ChurnPct + 0.5)
				if turnover > 0 {
					step := dur / time.Duration(turnover)
					for i := 0; i < turnover; i++ {
						at := p.From + time.Duration(i)*step + step/4
						ops = append(ops, op{at, false}, op{at + step/4, true})
					}
				}
			}
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
			for _, o := range ops {
				if o.join {
					join(o.at)
				} else {
					leave(o.at)
				}
			}
		}
	}
	tr.Sort()
	return tr
}

// WriteTrace serializes a trace in the repository's text format: one
// "<seconds> <join|leave> <node>" triple per line, compatible in spirit
// with the availability-trace repositories the paper cites.
func WriteTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for _, e := range tr {
		if _, err := fmt.Fprintf(bw, "%.3f %s %d\n", e.At.Seconds(), e.Action, e.Node); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the text format produced by WriteTrace.
func ReadTrace(r io.Reader) (Trace, error) {
	var tr Trace
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("churn: trace line %d: want '<sec> <join|leave> <node>'", lineNo)
		}
		sec, err := strconv.ParseFloat(f[0], 64)
		if err != nil || sec < 0 {
			return nil, fmt.Errorf("churn: trace line %d: bad time %q", lineNo, f[0])
		}
		var act Action
		switch f[1] {
		case "join":
			act = Join
		case "leave":
			act = Leave
		default:
			return nil, fmt.Errorf("churn: trace line %d: bad action %q", lineNo, f[1])
		}
		node, err := strconv.Atoi(f[2])
		if err != nil || node < 0 {
			return nil, fmt.Errorf("churn: trace line %d: bad node %q", lineNo, f[2])
		}
		tr = append(tr, Event{At: time.Duration(sec * float64(time.Second)), Action: act, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.Sort()
	return tr, nil
}
