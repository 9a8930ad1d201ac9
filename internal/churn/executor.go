package churn

import (
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
)

// Executor replays a trace on a runtime through two callbacks that start
// and stop node slots (a simulated session revives or fails a simnet host
// and starts or kills its instance): the churn manager component of
// Fig. 2, which "sends instructions to the daemons for stopping and
// starting processes on-the-fly".
//
// A replay holds one timer whatever the trace's length, so a churned
// session's heap does not grow with the trace: a cursor walks the sorted
// trace, and each fire handles every event at that instant, in trace
// order, then re-arms the same timer for the next instant.
type Executor struct {
	rt                  core.Runtime
	startNode, stopNode func(slot int)
	trace               Trace
	fire                func() // e.step, bound once

	// mu guards the replay state: under LiveRuntime the timer fires from a
	// time.AfterFunc goroutine, concurrently with Alive/Counts/Stop callers.
	mu      sync.Mutex
	start   time.Time // the instant Run was called; event times count from it
	next    int       // the trace index of the next event to fire
	alive   map[int]bool
	started int
	stopped int
	timer   core.Timer
	halted  bool
}

// NewExecutor prepares (but does not start) a replay that calls start
// for each slot that joins and stop for each that leaves.
func NewExecutor(rt core.Runtime, trace Trace, start, stop func(slot int)) *Executor {
	sorted := append(Trace(nil), trace...)
	sorted.Sort()
	e := &Executor{rt: rt, startNode: start, stopNode: stop, trace: sorted, alive: make(map[int]bool)}
	e.fire = e.step
	return e
}

// Run schedules the trace relative to now. It returns immediately; events
// fire as tasks on the runtime.
func (e *Executor) Run() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.start = e.rt.Now()
	e.arm()
}

// arm schedules the timer for the event at the cursor, if any. The caller
// holds e.mu.
func (e *Executor) arm() {
	if e.halted || e.next >= len(e.trace) {
		return
	}
	e.timer = e.rt.After(e.start.Add(e.trace[e.next].At).Sub(e.rt.Now()), e.fire)
}

// step handles every event at the cursor's instant, in trace order, and
// arms the timer for the next one.
func (e *Executor) step() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.halted {
		// Stop won the race with this in-flight fire.
		return
	}
	at := e.trace[e.next].At
	for ; e.next < len(e.trace) && e.trace[e.next].At == at; e.next++ {
		ev := e.trace[e.next]
		// Node control may block (protocol joins, socket teardown), so it
		// runs as a task, never on the event loop itself.
		switch ev.Action {
		case Join:
			if !e.alive[ev.Node] {
				e.alive[ev.Node] = true
				e.started++
				e.rt.Go(func() { e.startNode(ev.Node) })
			}
		case Leave:
			if e.alive[ev.Node] {
				delete(e.alive, ev.Node)
				e.stopped++
				e.rt.Go(func() { e.stopNode(ev.Node) })
			}
		}
	}
	e.arm()
}

// Stop cancels all pending events and suppresses in-flight fires
// (already-executed ones are unaffected). The executor cannot be reused
// after Stop.
func (e *Executor) Stop() {
	e.mu.Lock()
	e.halted = true
	e.timer.Stop()
	e.mu.Unlock()
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
