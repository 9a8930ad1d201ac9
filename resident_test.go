package splay_test

import (
	"bytes"
	"context"
	"strings"
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

// TestResidentPeersHoldNoTask: a by-name BitTorrent swarm's peers return
// from Run once started and keep seeding on their periodics, so once every
// peer has completed the swarm holds no parked task. While each peer's main
// task polled for completion and then slept until Kill, the swarm held one
// task per peer.
func TestResidentPeersHoldNoTask(t *testing.T) {
	t.Parallel()
	const nodes = 16
	var logs bytes.Buffer
	spec := splay.AppSpec{Name: "bittorrent", Nodes: nodes, Params: []byte(`{"size":65536,"piece_size":8192}`)}
	sess, err := splay.Scenario{
		Seed:    1,
		Testbed: splay.Uniform(nodes, 10*time.Millisecond, 0),
		Collect: splay.Collect{Logs: &logs},
		Apps:    []splay.AppSpec{spec},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if _, err := sess.Deploy(spec).Wait(); err != nil {
		t.Fatal(err)
	}
	for range 12 {
		if strings.Count(logs.String(), "download complete") == nodes-1 {
			break
		}
		sess.RunFor(5 * time.Second)
	}
	if n := strings.Count(logs.String(), "download complete"); n != nodes-1 {
		t.Fatalf("%d of %d peers completed:\n%s", n, nodes-1, logs.String())
	}
	sess.RunFor(time.Minute + 2500*time.Millisecond) // between the peers' ticks
	st := sess.KernelStats()
	t.Logf("%d live tasks, %d peak coroutines, %d peers seeding", st.Tasks, st.PeakCoroutines, nodes-1)
	if st.Tasks > nodes/8 {
		t.Errorf("%d tasks live with %d seeding peers, want at most %d: their main tasks are parked", st.Tasks, nodes-1, nodes/8)
	}
	if n := strings.Count(logs.String(), "download complete"); n != nodes-1 {
		t.Errorf("%d completion lines for %d peers: a peer reported twice", n, nodes-1)
	}
}
