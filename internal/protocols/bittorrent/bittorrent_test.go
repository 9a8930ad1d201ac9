package bittorrent

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

type swarm struct {
	k       *sim.Kernel
	tracker *Tracker
	peers   []*Peer
}

func buildSwarm(t *testing.T, leechers int, torrent Torrent, bps float64) *swarm {
	t.Helper()
	k := sim.NewKernel()
	n := leechers + 2 // tracker + seed + leechers
	nw := simnet.New(k, simnet.Symmetric{RTT: 30 * time.Millisecond, Bps: bps}, n, 1)
	rt := core.NewSimRuntime(k, 1)
	mk := func(i int) *core.AppContext {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 6881}
		return core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: addr}, nil)
	}
	sw := &swarm{k: k}
	trackerAddr := transport.Addr{Host: simnet.HostName(0), Port: 6881}
	sw.tracker = NewTracker(mk(0))
	seed := NewPeer(mk(1), torrent, trackerAddr, true)
	sw.peers = append(sw.peers, seed)
	for i := 0; i < leechers; i++ {
		sw.peers = append(sw.peers, NewPeer(mk(i+2), torrent, trackerAddr, false))
	}
	k.Go(func() {
		if err := sw.tracker.Start(); err != nil {
			t.Errorf("tracker: %v", err)
		}
		for i, p := range sw.peers {
			if err := p.Start(); err != nil {
				t.Errorf("peer %d: %v", i, err)
			}
		}
	})
	return sw
}

func TestSwarmCompletes(t *testing.T) {
	torrent := Torrent{Name: "ubuntu.iso", Size: 2 << 20, PieceSize: 64 << 10}
	sw := buildSwarm(t, 11, torrent, 1<<20)
	sw.k.RunFor(20 * time.Minute)
	for i, p := range sw.peers {
		if !p.Complete() {
			t.Fatalf("peer %d incomplete: %d/%d pieces", i, p.Pieces(), torrent.NumPieces())
		}
	}
	if sw.tracker.Swarm() != len(sw.peers) {
		t.Fatalf("tracker knows %d peers, want %d", sw.tracker.Swarm(), len(sw.peers))
	}
}

func TestLeechersUploadToEachOther(t *testing.T) {
	// Cooperative distribution: the seed must not serve everyone alone.
	torrent := Torrent{Name: "f", Size: 4 << 20, PieceSize: 64 << 10}
	sw := buildSwarm(t, 11, torrent, 1<<20)
	sw.k.RunFor(30 * time.Minute)
	leecherUploads := 0
	for _, p := range sw.peers[1:] {
		leecherUploads += p.Uploaded
	}
	if leecherUploads == 0 {
		t.Fatal("no leecher uploaded anything: swarm degenerated to client-server")
	}
	seedUp := sw.peers[0].Uploaded
	total := seedUp + leecherUploads
	if float64(seedUp)/float64(total) > 0.8 {
		t.Fatalf("seed served %d of %d bytes: insufficient cooperation", seedUp, total)
	}
}

func TestChokingLimitsUnchokedPeers(t *testing.T) {
	torrent := Torrent{Name: "f", Size: 1 << 20, PieceSize: 64 << 10}
	sw := buildSwarm(t, 11, torrent, 1<<20)
	sw.k.RunFor(2 * time.Minute)
	for i, p := range sw.peers {
		if u := p.Unchoked(); u > unchokeSlots+1 {
			t.Fatalf("peer %d unchokes %d peers, cap is %d", i, u, unchokeSlots+1)
		}
	}
}

func TestCompletionTimeBoundedByBandwidth(t *testing.T) {
	torrent := Torrent{Name: "f", Size: 2 << 20, PieceSize: 64 << 10}
	sw := buildSwarm(t, 7, torrent, 1<<20)
	sw.k.RunFor(30 * time.Minute)
	var last time.Time
	for i, p := range sw.peers {
		if p.CompletedAt.IsZero() {
			t.Fatalf("peer %d never completed", i)
		}
		if p.CompletedAt.After(last) {
			last = p.CompletedAt
		}
	}
	elapsed := last.Sub(sim.Epoch)
	// 2 MB at 1 MB/s: the seed alone needs 2 s per full copy; swarming
	// must finish well under serving 7 copies serially (14 s) plus
	// protocol overhead, and cannot beat the line rate.
	if elapsed < 2*time.Second {
		t.Fatalf("finished in %s: faster than line rate", elapsed)
	}
	if elapsed > 10*time.Minute {
		t.Fatalf("swarm took %s", elapsed)
	}
}
