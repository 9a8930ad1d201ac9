package splay_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/memprof"
)

// churnedHeap runs a small Cyclon population under constant turnover — the
// whole population replaced every simulated minute — for the given time
// and returns the post-GC heap the still-running session holds beyond what
// the process held before it started.
func churnedHeap(t *testing.T, churned time.Duration) uint64 {
	t.Helper()
	const ramp, settle = 20 * time.Second, 10 * time.Second
	script := fmt.Sprintf("from 0s to %s inc 40\nfrom %s to %s const churn %d%%",
		ramp, ramp+settle, ramp+settle+churned, int(100*churned.Minutes()))
	churn, err := splay.ChurnScript(script, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc := splay.Scenario{
		Name:    "churn-heap",
		Seed:    5,
		Testbed: splay.Uniform(0, 10*time.Millisecond, 0),
		Churn:   churn,
		Apps:    []splay.AppSpec{{Name: "cyclon", Params: []byte(`{"shuffle_every":1000000000}`)}},
	}
	before := memprof.LiveHeap()
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	sess.RunFor(ramp + settle + churned)
	if got := sess.Daemons(); got != 40 {
		t.Fatalf("%d nodes alive after %s of churn, want 40", got, churned)
	}
	after := memprof.LiveHeap()
	runtime.KeepAlive(sess)
	if after < before {
		return 0
	}
	return after - before
}

// TestChurnHeapTracksLivePopulation: a session's heap follows who is alive
// and what they have open, not how long the trace has been running. The
// same 40-node population under the same turnover holds (within 15 %) the
// same heap after three times the simulated time; when closed connections
// stayed resident it grew roughly linearly. Not parallel: it reads the
// process-wide heap.
func TestChurnHeapTracksLivePopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	const T = 4 * time.Minute
	short := churnedHeap(t, T)
	long := churnedHeap(t, 3*T)
	t.Logf("session heap after %s: %d B; after %s: %d B (%+.1f %%)",
		T, short, 3*T, long, 100*(float64(long)/float64(short)-1))
	if float64(long) > 1.15*float64(short) {
		t.Errorf("session heap grew from %d B after %s of churn to %d B after %s: it follows elapsed time, not the live population",
			short, T, long, 3*T)
	}
}
