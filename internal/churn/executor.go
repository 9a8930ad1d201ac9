package churn

import (
	"math/rand"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
)

// NodeControl starts and stops node slots. The simulation experiments
// implement it by reviving/failing simnet hosts and instantiating
// applications; the live controller implements it with daemon commands.
type NodeControl interface {
	StartNode(slot int)
	StopNode(slot int)
}

// NodeControlFuncs adapts two functions to NodeControl.
type NodeControlFuncs struct {
	Start func(slot int)
	Stop  func(slot int)
}

// StartNode implements NodeControl.
func (f NodeControlFuncs) StartNode(slot int) { f.Start(slot) }

// StopNode implements NodeControl.
func (f NodeControlFuncs) StopNode(slot int) { f.Stop(slot) }

// Executor replays a trace against a NodeControl on a runtime: the churn
// manager component of Fig. 2, which "sends instructions to the daemons
// for stopping and starting processes on-the-fly".
type Executor struct {
	rt    core.Runtime
	ctl   NodeControl
	trace Trace

	// mu guards the replay state: under LiveRuntime the scheduled events
	// fire from time.AfterFunc goroutines, concurrently with each other
	// and with Alive/Counts/Stop callers.
	mu      sync.Mutex
	alive   map[int]bool
	started int
	stopped int
	timers  []core.Timer
	halted  bool
}

// NewExecutor prepares (but does not start) a replay.
func NewExecutor(rt core.Runtime, trace Trace, ctl NodeControl) *Executor {
	sorted := append(Trace(nil), trace...)
	sorted.Sort()
	return &Executor{rt: rt, ctl: ctl, trace: sorted, alive: make(map[int]bool)}
}

// Run schedules every trace event relative to now. It returns immediately;
// events fire as tasks on the runtime.
func (e *Executor) Run() {
	for _, ev := range e.trace {
		t := e.rt.After(ev.At, func() {
			e.mu.Lock()
			if e.halted {
				// Stop won the race with this in-flight fire.
				e.mu.Unlock()
				return
			}
			var run func()
			switch ev.Action {
			case Join:
				if !e.alive[ev.Node] {
					e.alive[ev.Node] = true
					e.started++
					run = func() { e.ctl.StartNode(ev.Node) }
				}
			case Leave:
				if e.alive[ev.Node] {
					delete(e.alive, ev.Node)
					e.stopped++
					run = func() { e.ctl.StopNode(ev.Node) }
				}
			}
			e.mu.Unlock()
			// Node control may block (protocol joins, socket teardown),
			// so it runs as a task, never on the event loop itself.
			if run != nil {
				e.rt.Go(run)
			}
		})
		e.mu.Lock()
		if e.halted {
			e.mu.Unlock()
			t.Stop()
			return
		}
		e.timers = append(e.timers, t)
		e.mu.Unlock()
	}
}

// Stop cancels all pending events and suppresses in-flight fires
// (already-executed ones are unaffected). The executor cannot be reused
// after Stop.
func (e *Executor) Stop() {
	e.mu.Lock()
	e.halted = true
	timers := e.timers
	e.timers = nil
	e.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// Alive returns the currently live slot count.
func (e *Executor) Alive() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.alive)
}

// Counts reports how many starts/stops have been issued.
func (e *Executor) Counts() (started, stopped int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started, e.stopped
}

// MaintainPopulation returns a trace that holds a fixed-size population of
// n nodes for the given duration while sessions last sessionMean on
// average (exponentially distributed) — the §3.2 long-running-DHT use
// case where the churn manager "maintains a fixed-size population and
// automatically bootstraps new nodes as faults occur".
func MaintainPopulation(n int, duration, sessionMean time.Duration, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	nextSlot := 0
	for i := 0; i < n; i++ {
		tr = append(tr, Event{At: 0, Action: Join, Node: nextSlot})
		nextSlot++
	}
	// For each of the n logical positions, generate end-of-session and
	// replacement times.
	for i := 0; i < n; i++ {
		at := time.Duration(0)
		slot := i
		for {
			session := time.Duration(rng.ExpFloat64() * float64(sessionMean))
			at += session
			if at >= duration {
				break
			}
			tr = append(tr, Event{At: at, Action: Leave, Node: slot})
			// Replacement joins promptly on a fresh slot.
			at += 2 * time.Second
			if at >= duration {
				break
			}
			slot = nextSlot
			nextSlot++
			tr = append(tr, Event{At: at, Action: Join, Node: slot})
		}
	}
	tr.Sort()
	return tr
}
