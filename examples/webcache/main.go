// webcache deploys the §5.7 cooperative web cache onto a simulated
// cluster through the scenario SDK, drives it with a Zipf request
// stream, and prints the evolving hit ratio and delays — a miniature of
// Fig. 14.
//
//	go run ./examples/webcache
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/protocols/webcache"
	"github.com/splaykit/splay/internal/stats"
	"github.com/splaykit/splay/internal/workload"
)

func main() {
	const nodes = 32
	var pnodes []*pastry.Node
	var caches []*webcache.Cache
	sc := splay.Scenario{
		Seed:    3,
		Testbed: splay.Uniform(nodes, 10*time.Millisecond, 12.5e6),
		Apps: []splay.AppSpec{{
			Name:  "webcache",
			Nodes: nodes,
			App: splay.AppFunc(func(env *splay.Env) error {
				p := pastry.New(env.AppContext(), pastry.DefaultConfig())
				c := webcache.New(env.AppContext(), p)
				if err := p.Start(); err != nil {
					return err
				}
				if err := c.Start(); err != nil {
					return err
				}
				pnodes, caches = append(pnodes, p), append(caches, c)
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
	if err := pastry.BuildNetwork(pnodes, 3); err != nil {
		log.Fatal(err)
	}

	gen, err := workload.NewWebRequests(workload.WebConfig{
		URLs: 5000, ZipfS: 1.22, RatePerSec: 50, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	const window = 5 * time.Minute
	type bucket struct {
		hits, total int
		delays      stats.Durations
	}
	buckets := map[int]*bucket{}
	sess.Go(func() {
		prev := time.Duration(0)
		for i := 0; ; i++ {
			at, url := gen.Next()
			if at > 30*time.Minute {
				return
			}
			sess.Sleep(at - prev)
			prev = at
			res, err := caches[i%nodes].Get(url)
			if err != nil {
				continue
			}
			b := buckets[int(at/window)]
			if b == nil {
				b = &bucket{}
				buckets[int(at/window)] = b
			}
			b.total++
			if res.Hit {
				b.hits++
			}
			b.delays = append(b.delays, res.Delay)
		}
	})
	sess.RunFor(31 * time.Minute)

	fmt.Printf("cooperative web cache: %d nodes, LRU(100), TTL 120s, 50 req/s\n", nodes)
	fmt.Printf("%-10s %8s %10s %10s\n", "window", "hit%", "p50", "p95")
	for i := 0; i < 6; i++ {
		b := buckets[i]
		if b == nil || b.total == 0 {
			continue
		}
		fmt.Printf("%-10s %7.1f%% %10s %10s\n",
			time.Duration(i)*window,
			float64(b.hits)/float64(b.total)*100,
			b.delays.Percentile(50).Round(time.Millisecond),
			b.delays.Percentile(95).Round(time.Millisecond))
	}
}
