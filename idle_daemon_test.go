package splay_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/memprof"
)

// idleDaemonBudget is what one connected, idle daemon may pin: the
// controller's session, the daemon, its provisioning slot and both ends
// of its control connection. It measures ≈ 1,540 bytes; it was 2,334
// while sessions kept pending replies in a map and a decode target of
// their own, and slots kept a construction closure.
const idleDaemonBudget = 1610

// fleetHeap starts a Uniform testbed of n daemons, lets it idle for a
// simulated minute and returns the post-GC heap the running session holds
// beyond what the process held before it started.
func fleetHeap(t *testing.T, n int) uint64 {
	t.Helper()
	sc := splay.Scenario{Name: "idle-fleet", Seed: 1, Testbed: splay.Uniform(n, 10*time.Millisecond, 0)}
	before := memprof.LiveHeap()
	sess, err := sc.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	sess.RunFor(time.Minute)
	if got := sess.Daemons(); got != n {
		t.Fatalf("%d daemons connected, want %d", got, n)
	}
	after := memprof.LiveHeap()
	runtime.KeepAlive(sess)
	return after - before
}

// TestIdleDaemonBytes prices a connected, idle daemon on the live heap:
// the heap growth from a 200- to a 1,800-daemon testbed, divided by the
// 1,600 daemons between them, so what every session holds regardless of
// its size (kernel, controller, registry shards) cancels out. Not
// parallel: it reads the process-wide heap.
func TestIdleDaemonBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; run without -short")
	}
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const small, large = 200, 1800
	hs, hl := fleetHeap(t, small), fleetHeap(t, large)
	per := (float64(hl) - float64(hs)) / (large - small)
	t.Logf("idle daemon: %.0f B (budget %d); %d daemons hold %d B, %d hold %d B", per, idleDaemonBudget, small, hs, large, hl)
	if per > idleDaemonBudget {
		t.Errorf("an idle connected daemon pins %.0f B, budget %d", per, idleDaemonBudget)
	}
}
