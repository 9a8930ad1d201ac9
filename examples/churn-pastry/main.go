// churn-pastry runs Pastry under the paper's Fig. 4 synthetic churn
// script, declared as a Scenario churn spec: each trace slot that joins
// instantiates the application, each leave kills it and takes the host
// down. Lookup success is sampled through the phases — the §5.5
// churn-management workflow in miniature. (A churned scenario composes
// with the other planes: add Collect{Metrics: true} and env.StartReporting
// to stream the samples, or Faults/Assert to partition the overlay
// mid-churn and gate the run on the outcome.)
//
//	go run ./examples/churn-pastry
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/pastry"
)

func main() {
	// Scale the Fig. 4 script up: 10× the population for a livelier run.
	churn, err := splay.ChurnScript(`at 30s join 100
from 5m to 10m inc 100
from 10m to 15m const churn 50%
at 15m leave 50%
from 15m to 20m inc 100 churn 150%
at 20m stop`, 99)
	if err != nil {
		log.Fatal(err)
	}

	cfg := pastry.DefaultConfig()
	cfg.RPCTimeout = 5 * time.Second
	cfg.MaintainEvery = 10 * time.Second
	rng := rand.New(rand.NewSource(99))
	nodes := make([]*pastry.Node, churn.Slots())
	var alive []int

	sc := splay.Scenario{
		Seed:    99,
		Testbed: splay.Uniform(0, 20*time.Millisecond, 0),
		Churn:   churn,
		Apps: []splay.AppSpec{{
			Name: "churn-pastry",
			App: splay.AppFunc(func(env *splay.Env) error {
				slot := env.Job().Position - 1
				c := cfg
				id := pastry.ID(rng.Uint64())
				c.ID = &id
				n := pastry.New(env.AppContext(), c)
				nodes[slot] = n
				if err := n.Start(); err != nil {
					return err
				}
				if len(alive) > 0 {
					seed := nodes[alive[rng.Intn(len(alive))]]
					n.Join(seed.Self().Addr) //nolint:errcheck // churned-out seeds are expected
				}
				n.StartMaintenance()
				alive = append(alive, slot)
				env.OnKill(func() {
					for i, s := range alive {
						if s == slot {
							alive = append(alive[:i], alive[i+1:]...)
							break
						}
					}
				})
				return nil
			}),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Stop()

	// Sample lookups every 30 seconds.
	fmt.Printf("%-8s %8s %8s %8s\n", "minute", "alive", "ok", "fail")
	for m := 0; m < 21; m++ {
		m := m
		sess.GoAfter(time.Duration(m)*time.Minute+30*time.Second, func() {
			ok, fail := 0, 0
			for i := 0; i < 20 && len(alive) > 1; i++ {
				src := nodes[alive[rng.Intn(len(alive))]]
				if _, err := src.Route(pastry.ID(rng.Uint64())); err == nil {
					ok++
				} else {
					fail++
				}
			}
			fmt.Printf("%-8d %8d %8d %8d\n", m, len(alive), ok, fail)
		})
	}
	sess.RunFor(22 * time.Minute)
	fmt.Println("churn replay complete")
}
