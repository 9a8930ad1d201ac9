package churn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
)

// TestExecutorLiveRuntimeRace replays a dense trace on the live runtime —
// where every event fires from its own time.AfterFunc goroutine — while
// hammering Alive/Counts from readers. Run with -race: the seed executor
// mutated alive/started/stopped from those goroutines with no lock.
func TestExecutorLiveRuntimeRace(t *testing.T) {
	t.Parallel()
	rt := core.NewLiveRuntime(1)
	var started, stopped atomic.Int64
	start := func(int) { started.Add(1) }
	stop := func(int) { stopped.Add(1) }
	// Joins burst in the first few milliseconds; leaves burst well after,
	// so per-slot ordering survives timer-goroutine scheduling jitter
	// while each burst still fires with full concurrency.
	var tr Trace
	const n = 64
	for i := 0; i < n; i++ {
		at := time.Duration(i%8) * time.Millisecond
		tr = append(tr, Event{At: at, Action: Join, Node: i})
		tr = append(tr, Event{At: at + 250*time.Millisecond, Action: Leave, Node: i})
	}
	ex := NewExecutor(rt, tr, start, stop)

	stopRead := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
					ex.Alive()
					ex.Counts()
				}
			}
		}()
	}
	ex.Run()
	// Wait for the replay to drain: all joins and leaves issued and handed
	// to node control. The executor counts an event before its control
	// callback runs, so Counts alone can reach n a moment early.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s, p := ex.Counts()
		if s == n && p == n && started.Load() == n && stopped.Load() == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay incomplete: executor counted %d/%d, node control saw %d/%d, want %d/%d",
				s, p, started.Load(), stopped.Load(), n, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopRead)
	wg.Wait()
	if ex.Alive() != 0 {
		t.Fatalf("alive = %d after balanced trace", ex.Alive())
	}
}

// TestExecutorStopRacesInFlightFires stops the executor while events are
// mid-flight; counts must freeze once Stop has returned and no callback
// may fire afterwards beyond those already past the halt check.
func TestExecutorStopRacesInFlightFires(t *testing.T) {
	t.Parallel()
	rt := core.NewLiveRuntime(2)
	var cmds atomic.Int64
	start := func(int) { cmds.Add(1) }
	stop := func(int) { cmds.Add(1) }
	var tr Trace
	for i := 0; i < 500; i++ {
		tr = append(tr, Event{At: time.Duration(i%20) * time.Millisecond, Action: Join, Node: i})
	}
	ex := NewExecutor(rt, tr, start, stop)
	ex.Run()
	time.Sleep(5 * time.Millisecond)
	ex.Stop()
	// Let any in-flight AfterFunc goroutines drain, then verify the
	// replay state is frozen.
	time.Sleep(10 * time.Millisecond)
	s1, _ := ex.Counts()
	a1 := ex.Alive()
	time.Sleep(25 * time.Millisecond)
	s2, _ := ex.Counts()
	if s1 != s2 {
		t.Fatalf("starts kept accumulating after Stop: %d -> %d", s1, s2)
	}
	if a2 := ex.Alive(); a1 != a2 {
		t.Fatalf("alive changed after Stop: %d -> %d", a1, a2)
	}
}

// TestExecutorStopDuringRun races Stop against Run itself: scheduling
// must not leak timers appended after the halt.
func TestExecutorStopDuringRun(t *testing.T) {
	t.Parallel()
	for i := 0; i < 20; i++ {
		rt := core.NewLiveRuntime(int64(i))
		start, stop := func(int) {}, func(int) {}
		var tr Trace
		for j := 0; j < 200; j++ {
			tr = append(tr, Event{At: time.Duration(j) * time.Millisecond, Action: Join, Node: j})
		}
		ex := NewExecutor(rt, tr, start, stop)
		done := make(chan struct{})
		go func() {
			ex.Run()
			close(done)
		}()
		ex.Stop()
		<-done
		ex.Stop()
	}
}
