package controller

import (
	"fmt"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/livenet"
)

// seedSortByRTT is the pre-sharding controller's selection order: an
// insertion sort reading each session's rtt (under its lock) per
// comparison, unmeasured daemons last.
func seedSortByRTT(ds []*daemonSession) {
	less := func(a, b *daemonSession) bool {
		a.mu.Lock()
		ra := a.rtt
		a.mu.Unlock()
		b.mu.Lock()
		rb := b.rtt
		b.mu.Unlock()
		if (ra == 0) != (rb == 0) {
			return rb == 0
		}
		return ra < rb
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// TestShardedSelectionMatchesSeedOrder is the selection-order golden
// check: for daemons with distinct measured RTTs, the sharded registry's
// one-pass selection must order candidates exactly as the seed
// controller's per-comparison insertion sort of a snapshot did, with
// unmeasured daemons last in both.
func TestShardedSelectionMatchesSeedOrder(t *testing.T) {
	t.Parallel()
	reg := newRegistry()
	var connectOrder []*daemonSession
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("n%d", i+1)
		d := &daemonSession{name: name, hash: nameHash(name)}
		// Distinct RTTs in a scrambled pattern; every 7th daemon is
		// unmeasured (rtt 0) and must sort last.
		if i%7 != 0 {
			d.rtt = time.Duration((i*37)%199+1) * time.Millisecond
		}
		reg.put(d)
		connectOrder = append(connectOrder, d)
	}

	snapshot := reg.snapshot()
	if len(snapshot) != len(connectOrder) {
		t.Fatalf("snapshot has %d sessions, want %d", len(snapshot), len(connectOrder))
	}

	// Same candidate enumeration: the selection must order it exactly as
	// the seed's insertion sort would have (both are stable by rtt).
	sharded, eligible := reg.fastest(len(snapshot), nil)
	if eligible != len(snapshot) || len(sharded) != len(snapshot) {
		t.Fatalf("fastest returned %d of %d eligible, want all %d", len(sharded), eligible, len(snapshot))
	}
	seed := append([]*daemonSession(nil), snapshot...)
	seedSortByRTT(seed)
	for i := range seed {
		if sharded[i] != seed[i] {
			t.Fatalf("selection order diverges at %d: sharded %s (rtt %v), seed %s (rtt %v)",
				i, sharded[i].name, sharded[i].rtt, seed[i].name, seed[i].rtt)
		}
	}

	// Across different enumerations (the seed iterated a Go map), only
	// ties may move: every distinct measured RTT must land on the same
	// rank, and the unmeasured tail must hold the same members.
	other := append([]*daemonSession(nil), connectOrder...)
	seedSortByRTT(other)
	measured := 0
	for i := range other {
		if other[i].rtt != 0 {
			measured++
			if sharded[i] != other[i] {
				t.Fatalf("measured rank %d diverges: sharded %s (rtt %v), seed %s (rtt %v)",
					i, sharded[i].name, sharded[i].rtt, other[i].name, other[i].rtt)
			}
		}
	}
	tail := map[*daemonSession]bool{}
	for _, d := range sharded[measured:] {
		tail[d] = true
	}
	for _, d := range other[measured:] {
		if !tail[d] {
			t.Fatalf("unmeasured daemon %s missing from sharded tail", d.name)
		}
	}
}

// TestSubmitWhilePingsMeasure places jobs on the live runtime while the
// monitor's ping callbacks write each session's rtt from other goroutines.
// Selection reads those rtts under the session lock while holding a shard
// lock; run with -race, this covers that lock order against the writers.
func TestSubmitWhilePingsMeasure(t *testing.T) {
	t.Parallel()
	rt := core.NewLiveRuntime(1)
	cfg := DefaultConfig()
	cfg.Port = PortEphemeral
	cfg.PingEvery = 8 * time.Millisecond // one slice per millisecond
	ctl := New(rt, livenet.NewNode("127.0.0.1"), cfg)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()
	const fleet = 8
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("127.0.4.%d", i+1)
		dcfg := daemon.DefaultConfig(name)
		dcfg.PortLow, dcfg.PortHigh, dcfg.ProbePorts = 32000+100*i, 32099+100*i, true
		d := daemon.New(rt, livenet.NewNode(name), noopRegistry(), dcfg, nil)
		if err := d.Connect(ctl.Addr()); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
	}
	for deadline := time.Now().Add(10 * time.Second); ctl.Daemons() < fleet; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d daemons connected", ctl.Daemons(), fleet)
		}
	}
	for i := 0; i < 20; i++ {
		job, err := ctl.Submit(JobSpec{App: "noop", Nodes: fleet / 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := ctl.StopJob(job.ID); err != nil {
			t.Fatalf("stop %d: %v", i, err)
		}
	}
	best, _ := ctl.reg.fastest(1, nil)
	best[0].mu.Lock()
	measured := best[0].rtt > 0
	best[0].mu.Unlock()
	if !measured {
		t.Fatal("no ping was answered while jobs were placed")
	}
}

// TestRegistrySnapshotDeterministic pins that snapshot order is a pure
// function of connect order — the property bit-for-bit simulations rely
// on — and that replacement and removal keep it consistent.
func TestRegistrySnapshotDeterministic(t *testing.T) {
	t.Parallel()
	build := func() *registry {
		reg := newRegistry()
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("n%d", i)
			reg.put(&daemonSession{name: name, hash: nameHash(name)})
		}
		return reg
	}
	a, b := build(), build()
	sa, sb := a.snapshot(), b.snapshot()
	for i := range sa {
		if sa[i].name != sb[i].name {
			t.Fatalf("snapshot order not deterministic at %d: %s vs %s", i, sa[i].name, sb[i].name)
		}
	}
	// Reconnecting n5 moves it to the back of its shard; count is stable.
	re := &daemonSession{name: "n5", hash: nameHash("n5")}
	if old := a.put(re); old == nil {
		t.Fatal("put did not report the displaced session")
	}
	if a.count() != 100 {
		t.Fatalf("count after reconnect = %d, want 100", a.count())
	}
	if d, ok := a.get("n5"); !ok || d != re {
		t.Fatal("get did not return the reconnected session")
	}
	if !a.removeIf(re) {
		t.Fatal("removeIf failed for live session")
	}
	if a.removeIf(re) {
		t.Fatal("removeIf succeeded twice")
	}
	if a.count() != 99 {
		t.Fatalf("count after remove = %d, want 99", a.count())
	}
	// Every session sits in exactly one ping slice.
	total := 0
	for s := 0; s < pingSlices; s++ {
		total += len(a.slice(s))
	}
	if total != 99 {
		t.Fatalf("slices cover %d sessions, want 99", total)
	}
}
