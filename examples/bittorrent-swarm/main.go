// bittorrent-swarm distributes a file through a simulated BitTorrent
// swarm deployed as one scenario — the paper's motivating short-lifetime
// deployment ("distributing a large file using BitTorrent", §1). Roles
// come from the deployment itself: position 1 runs the tracker (the
// rendez-vous node every instance finds in job.nodes), position 2 the
// initial seed, everyone else leeches.
//
//	go run ./examples/bittorrent-swarm
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/bittorrent"
)

func main() {
	const leechers = 15
	torrent := bittorrent.Torrent{Name: "ubuntu.iso", Size: 8 << 20, PieceSize: 128 << 10}

	var seed *bittorrent.Peer
	var peers []*bittorrent.Peer
	sc := splay.Scenario{
		Seed:    7,
		Testbed: splay.Uniform(leechers+2, 40*time.Millisecond, 1<<20),
		Apps: []splay.AppSpec{{
			Name:  "swarm",
			Nodes: leechers + 2,
			App: splay.AppFunc(func(env *splay.Env) error {
				job := env.Job()
				if job.Position == 1 {
					return bittorrent.NewTracker(env.AppContext()).Start()
				}
				p := bittorrent.NewPeer(env.AppContext(), torrent, job.Nodes[0],
					job.Position == 2)
				if err := p.Start(); err != nil {
					return err
				}
				if job.Position == 2 {
					seed = p
				} else {
					peers = append(peers, p)
				}
				return nil
			}),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Stop()
	if _, err := sess.Deploy(sc.Apps[0]).Wait(); err != nil {
		log.Fatal(err)
	}
	start := sess.Now()
	sess.RunFor(30 * time.Minute)

	fmt.Printf("swarm: 1 seed + %d leechers, %d MB file, 1 MB/s links\n",
		leechers, torrent.Size>>20)
	var times []time.Duration
	for _, p := range peers {
		if p.CompletedAt.IsZero() {
			fmt.Println("  a peer did not finish!")
			continue
		}
		times = append(times, p.CompletedAt.Sub(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i, t := range times {
		fmt.Printf("  completion %2d: %8s\n", i+1, t.Round(time.Second))
	}
	up := seed.Uploaded
	var peerUp int
	for _, p := range peers {
		peerUp += p.Uploaded
	}
	fmt.Printf("seed served %d MB, leechers exchanged %d MB among themselves\n",
		up>>20, peerUp>>20)
}
