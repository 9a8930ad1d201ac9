package core

import "sync"

// Lock is SPLAY's cooperative lock library. With cooperative scheduling,
// races only occur across yield points (blocking calls); Lock protects
// multi-step critical sections that contain such calls — the pitfall the
// paper illustrates with Chord's check_predecessor. It is fair (FIFO) and
// works under both runtimes.
type Lock struct {
	rt      Runtime
	ctx     *AppContext // when instance-bound: yield the baton while parked
	mu      sync.Mutex  // protects state under LiveRuntime
	held    bool
	waiters []Waiter
}

// NewLock returns an unlocked lock bound to the runtime.
func NewLock(rt Runtime) *Lock { return &Lock{rt: rt} }

// Lock blocks the calling task until the lock is acquired. An
// instance-bound lock (AppContext.NewLock) yields the instance baton
// while parked, so the owner can run and release.
func (l *Lock) Lock() {
	l.mu.Lock()
	if !l.held {
		l.held = true
		l.mu.Unlock()
		return
	}
	w := l.rt.NewWaiter()
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	held := l.ctx != nil && l.ctx.yieldBaton()
	w.Wait()
	if held {
		l.ctx.acquireBaton()
	}
}

// TryLock acquires the lock if it is free and reports whether it did.
func (l *Lock) TryLock() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held {
		return false
	}
	l.held = true
	return true
}

// Unlock releases the lock, handing it to the oldest waiter if any.
// Unlocking an unheld lock panics: it is always a bug.
func (l *Lock) Unlock() {
	l.mu.Lock()
	if !l.held {
		l.mu.Unlock()
		panic("core: Unlock of unlocked Lock")
	}
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		if w.Wake(nil) {
			// Ownership transfers to the woken task; held stays true.
			l.mu.Unlock()
			return
		}
	}
	l.held = false
	l.mu.Unlock()
}
