// Package core implements the SPLAY application runtime: the paper's
// primary contribution. It defines the environment distributed applications
// are written against — an event-driven execution model with cooperative
// tasks, periodic activities, locks, per-job node information and sandboxed
// access to the network — plus the machinery the daemons use to instantiate,
// monitor and kill application instances.
//
// Applications written against this package run unmodified either inside
// the discrete-event simulation (SimRuntime over internal/sim) or as live
// processes on real networks (LiveRuntime over the standard library). This
// mirrors SPLAY's property that programs are debugged locally and deployed
// onto testbeds without code changes.
package core

import (
	"math/rand"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/sim"
)

// Waiter is a one-shot blocking point for a task: the runtime-independent
// version of the kernel's waiter. The first Wake (or the armed timeout)
// delivers a value to the task parked in Wait.
type Waiter interface {
	// Wake delivers v; it reports false if the waiter was already woken.
	Wake(v any) bool
	// WakeAfter arms (or re-arms) a timeout that wakes the waiter with v.
	WakeAfter(d time.Duration, v any)
	// Wait parks the calling task until woken and returns the wake value.
	Wait() any
}

// Runtime abstracts time and task scheduling. SimRuntime executes in
// virtual time on the simulation kernel; LiveRuntime uses real time and
// goroutines.
type Runtime interface {
	// Now returns the current (virtual or real) time.
	Now() time.Time
	// Sleep parks the calling task for d.
	Sleep(d time.Duration)
	// Go starts fn as a new task.
	Go(fn func())
	// After runs fn once after d; the returned function cancels it.
	After(d time.Duration, fn func()) (cancel func())
	// NewWaiter returns a fresh one-shot waiter.
	NewWaiter() Waiter
	// Rand returns the runtime's random source. In simulation it is
	// deterministic and must only be used from tasks; in live mode it is
	// safe for concurrent use.
	Rand() *rand.Rand
}

// SimRuntime adapts the simulation kernel to the Runtime interface.
type SimRuntime struct {
	kernel *sim.Kernel
	rng    *rand.Rand
}

var _ Runtime = (*SimRuntime)(nil)

// NewSimRuntime wraps a kernel; seed fixes the runtime's random source.
func NewSimRuntime(k *sim.Kernel, seed int64) *SimRuntime {
	return &SimRuntime{kernel: k, rng: rand.New(rand.NewSource(seed))}
}

// Now implements Runtime.
func (r *SimRuntime) Now() time.Time { return r.kernel.Now() }

// Sleep implements Runtime.
func (r *SimRuntime) Sleep(d time.Duration) { r.kernel.Sleep(d) }

// Go implements Runtime.
func (r *SimRuntime) Go(fn func()) { r.kernel.Go(fn) }

// After implements Runtime.
func (r *SimRuntime) After(d time.Duration, fn func()) (cancel func()) {
	return r.kernel.After(d, fn)
}

// NewWaiter implements Runtime.
func (r *SimRuntime) NewWaiter() Waiter { return r.kernel.NewWaiter() }

// Rand implements Runtime.
func (r *SimRuntime) Rand() *rand.Rand { return r.rng }

// LiveRuntime implements Runtime over real time and goroutines.
type LiveRuntime struct {
	rng *rand.Rand
}

var _ Runtime = (*LiveRuntime)(nil)

// NewLiveRuntime returns a live runtime with a concurrency-safe random
// source seeded from seed.
func NewLiveRuntime(seed int64) *LiveRuntime {
	return &LiveRuntime{rng: rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)})}
}

// Now implements Runtime.
func (r *LiveRuntime) Now() time.Time { return time.Now() }

// Sleep implements Runtime.
func (r *LiveRuntime) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements Runtime.
func (r *LiveRuntime) Go(fn func()) { go fn() }

// After implements Runtime.
func (r *LiveRuntime) After(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// NewWaiter implements Runtime.
func (r *LiveRuntime) NewWaiter() Waiter { return newLiveWaiter() }

// Rand implements Runtime.
func (r *LiveRuntime) Rand() *rand.Rand { return r.rng }

// lockedSource makes a rand.Source64 safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// liveWaiter implements Waiter with channels and real timers.
type liveWaiter struct {
	mu    sync.Mutex
	done  bool
	ch    chan any
	timer *time.Timer
}

func newLiveWaiter() *liveWaiter {
	return &liveWaiter{ch: make(chan any, 1)}
}

func (w *liveWaiter) Wake(v any) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return false
	}
	w.done = true
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	w.ch <- v
	return true
}

func (w *liveWaiter) WakeAfter(d time.Duration, v any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.timer = time.AfterFunc(d, func() { w.Wake(v) })
}

func (w *liveWaiter) Wait() any { return <-w.ch }
