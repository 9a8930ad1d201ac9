package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/sim"
)

// Timer is the handle Runtime.After hands out, a plain value: the kernel's
// pooled sim.Timer in simulation, so arming one allocates nothing, or the
// *time.Timer live. AppContext.After's handle wraps its kill-list entry
// instead, so Stop also unlists it. Stop on the zero Timer is a no-op.
type Timer struct {
	sim  sim.Timer
	live *time.Timer
	shot *oneShot
}

// Stop cancels the callback and reports whether it was still pending.
func (t Timer) Stop() bool {
	switch {
	case t.shot != nil:
		return t.shot.stop()
	case t.live != nil:
		return t.live.Stop()
	}
	return t.sim.Stop()
}

// Ticker is a fixed-rate periodic activity: one timer whose callback, bound
// once, runs fire on the dispatch path and then re-arms the same timer, so
// a tick allocates nothing. fire must not block; it spawns a task for work
// that may, and the next tick does not wait for that task. Work that must
// not overlap itself re-arms inside its task instead (fixed delay, as the
// fault engine's evaluation tick does).
//
// Stop and the fire-and-re-arm share one mutex and Stop sets a flag, so
// under LiveRuntime a Stop racing a fire never leaves a live timer behind.
// fire runs under that mutex: it must not stop its own ticker.
type Ticker struct {
	rt    Runtime
	every time.Duration
	fire  func()
	tick  func() // t.run, bound once

	mu      sync.Mutex
	stopped bool
	t       Timer
}

// StartTicker arms a ticker whose first fire is every from now. It panics
// on a non-positive interval.
func StartTicker(rt Runtime, every time.Duration, fire func()) *Ticker {
	if every <= 0 {
		panic(fmt.Sprintf("core: non-positive periodic interval %s", every))
	}
	t := &Ticker{rt: rt, every: every, fire: fire}
	t.tick = t.run
	t.mu.Lock() // a live first fire waits until its handle is stored
	t.t = rt.After(every, t.tick)
	t.mu.Unlock()
	return t
}

// run fires and re-arms under the mutex, so a Stop either lands before it
// (and run does nothing) or after the re-arm (and cancels it).
func (t *Ticker) run() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.stopped { // else a live fire that lost the race with Stop
		t.fire()
		t.t = t.rt.After(t.every, t.tick)
	}
}

// Stop cancels the pending tick; nothing fires or is armed after it
// returns. Idempotent.
func (t *Ticker) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.t.Stop()
	t.mu.Unlock()
}
