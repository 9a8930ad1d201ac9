// chord-lookup deploys a Chord ring onto a simulated ModelNet cluster
// through the scenario SDK (the §5.2 setting) and reports route lengths
// and delays — a miniature of Fig. 6. The controller places the
// instances; the ring is then converged statically and driven from a
// measurement task.
//
//	go run ./examples/chord-lookup
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/stream"
)

func main() {
	const n = 200
	var nodes []*chord.Node
	sc := splay.Scenario{
		Seed:    42,
		Testbed: splay.ModelNet(n),
		Apps: []splay.AppSpec{{
			Name:  "chord-lookup",
			Nodes: n,
			App: splay.AppFunc(func(env *splay.Env) error {
				cfg := chord.DefaultConfig()
				id := uint64(env.Rand().Intn(1 << 24))
				cfg.ID = &id
				node, err := chord.New(env.AppContext(), cfg)
				if err != nil {
					return err
				}
				if err := node.Start(); err != nil {
					return err
				}
				nodes = append(nodes, node)
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
	if err := chord.BuildRing(nodes, chord.BuildOptions{}); err != nil {
		log.Fatal(err)
	}

	hist := &stats.IntHistogram{}
	var delays stats.Durations
	done := false
	rng := stream.Rand(sess.Seed(), "lookups", 0)
	sess.Go(func() {
		for i := 0; i < 2000; i++ {
			src := nodes[rng.Intn(len(nodes))]
			res, err := src.Lookup(uint64(rng.Intn(1 << 24)))
			if err != nil {
				continue
			}
			hist.Add(res.Hops)
			delays = append(delays, res.RTT)
		}
		done = true
	})
	for !done {
		sess.RunFor(time.Minute)
	}

	fmt.Printf("Chord on simulated ModelNet: %d nodes, %d lookups\n", n, hist.Total())
	fmt.Printf("mean route length: %.2f hops (½·log2 N = %.2f)\n", hist.Mean(), 3.82)
	for h, p := range hist.PDF() {
		if p > 0 {
			fmt.Printf("  %d hops: %5.1f%%\n", h, p*100)
		}
	}
	for _, p := range []float64{50, 90, 99} {
		fmt.Printf("p%.0f lookup delay: %s\n", p, delays.Percentile(p).Round(time.Millisecond))
	}
}
