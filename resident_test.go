package splay_test

import (
	"context"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
)

// TestResidentInstancesHoldNoTask: a built-in deployed by name returns
// from Run once it is set up and stays resident on its ticker and server,
// so 64 live Cyclon instances hold no task between their shuffles. While
// each main task parked until Kill, the fleet held 64 tasks.
func TestResidentInstancesHoldNoTask(t *testing.T) {
	t.Parallel()
	const nodes = 64
	spec := splay.AppSpec{Name: "cyclon", Nodes: nodes}
	sess, err := splay.Scenario{
		Seed:    1,
		Testbed: splay.Uniform(nodes, 10*time.Millisecond, 0),
		Apps:    []splay.AppSpec{spec},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if _, err := sess.Deploy(spec).Wait(); err != nil {
		t.Fatal(err)
	}
	sess.RunFor(time.Minute)
	st, sent := sess.KernelStats(), sess.NetBytes()
	t.Logf("%d live tasks, %d peak coroutines, a simulated minute into %d resident instances", st.Tasks, st.PeakCoroutines, nodes)
	if st.Tasks > nodes/8 {
		t.Errorf("%d tasks live with %d resident instances, want at most %d: their main tasks are parked", st.Tasks, nodes, nodes/8)
	}
	sess.RunFor(10 * time.Second)
	if sess.NetBytes() == sent {
		t.Error("the instances stopped shuffling once their Run returned")
	}
}
