package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// Guard rails. A workload that runs away must end with a message that
// names what it exceeded, not with the kernel's OOM killer: prototyping a
// Pastry-under-churn workload hit an unbounded recursive route retry
// storm that reached 14 GB before anything noticed (see README.md).

// heapCeiling is the live-heap ceiling of one workload run.
const heapCeiling = 4 << 30

// guardError is the typed abort of a run that left its rails.
type guardError struct {
	Workload string
	Limit    string // "wall deadline" or "heap ceiling"
	Observed string
	Allowed  string
}

func (e *guardError) Error() string {
	return fmt.Sprintf("bench: guard: workload %s exceeded its %s: %s > %s",
		e.Workload, e.Limit, e.Observed, e.Allowed)
}

// guard watches one run's wall clock and heap.
type guard struct {
	workload string
	start    time.Time
	allowed  time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// verdict is the pure decision: which rail, if any, the observation left.
func verdict(workload string, elapsed, allowed time.Duration, heap, ceiling uint64) *guardError {
	if elapsed > allowed {
		return &guardError{Workload: workload, Limit: "wall deadline",
			Observed: elapsed.Round(time.Millisecond).String(), Allowed: allowed.String()}
	}
	if heap > ceiling {
		return &guardError{Workload: workload, Limit: "heap ceiling",
			Observed: fmt.Sprintf("%d MB", heap>>20), Allowed: fmt.Sprintf("%d MB", ceiling>>20)}
	}
	return nil
}

// heapInUse reads the heap's object bytes without stopping the world,
// so sampling it does not perturb the run it protects.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startGuard arms the rails and a watchdog that samples them four times
// a second: a simulation stuck inside one kernel run cannot be
// interrupted from outside, so the watchdog reports and exits the
// process itself.
func startGuard(workload string, allowed time.Duration) *guard {
	g := &guard{
		workload: workload,
		start:    time.Now(),
		allowed:  allowed,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				if err := g.check(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(exitGuard)
				}
			}
		}
	}()
	return g
}

// check is the between-slices form of the same test, returned as an
// error so the run unwinds normally.
func (g *guard) check() error {
	if g == nil {
		return nil
	}
	// Not "return verdict(…)": a nil *guardError in an error is not nil.
	if err := verdict(g.workload, time.Since(g.start), g.allowed, heapInUse(), heapCeiling); err != nil {
		return err
	}
	return nil
}

// close stops the watchdog and waits for it.
func (g *guard) close() {
	if g == nil {
		return
	}
	close(g.stop)
	<-g.done
}
