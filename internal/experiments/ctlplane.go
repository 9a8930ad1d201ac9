package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	splay "github.com/splaykit/splay"
)

func init() {
	register("ctlplane", ctlplane)
}

// ctlplane measures the control plane itself, in the style of the
// paper's §5.2–5.3: a real controller and real daemons (not an analytic
// model like fig12) run on a PlanetLab-like simulated network, and a job
// is deployed onto 60% of populations growing from 100 to 5,000 daemons
// with the default 125% superset. Reported per population: percentiles
// of the per-instance deployment delay (REGISTER superset probing →
// LIST → START, measured from Submit to each instance's first
// instruction), the submitter-observed deployment time, and the
// controller's frame load per deployed node.
func ctlplane(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("ctlplane")
	fmt.Fprintf(w, "# ctlplane — deployment time vs daemon population (PlanetLab model, superset 125%%)\n")
	fmt.Fprintf(w, "%-8s %-6s %9s %9s %9s %9s %9s %10s %12s\n",
		"daemons", "nodes", "p5", "p25", "p50", "p75", "p90", "submit", "frames/node")
	for _, ps := range []struct{ full, min int }{
		{100, 10}, {500, 25}, {1000, 50}, {2000, 100}, {5000, 250},
	} {
		n := opt.n(ps.full, ps.min)
		nodes := n * 3 / 5
		run, err := runCtlplane(n, nodes, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("ctlplane %d daemons: %w", n, err)
		}
		p := pctiles(run.delays)
		framesPerNode := float64(run.frames) / float64(nodes)
		fmt.Fprintf(w, "%-8d %-6d %9s %9s %9s %9s %9s %10s %12.1f\n",
			n, nodes, r(p[0]), r(p[1]), r(p[2]), r(p[3]), r(p[4]),
			r(run.submit), framesPerNode)
		res.Metrics[fmt.Sprintf("p50_s_%d", ps.full)] = p[2].Seconds()
		res.Metrics[fmt.Sprintf("p90_s_%d", ps.full)] = p[4].Seconds()
		res.Metrics[fmt.Sprintf("submit_s_%d", ps.full)] = run.submit.Seconds()
		res.Metrics[fmt.Sprintf("frames_per_node_%d", ps.full)] = framesPerNode
	}
	return res, nil
}

// ctlplaneRun is one population's measurement.
type ctlplaneRun struct {
	delays []time.Duration // per-instance Submit→start delay
	submit time.Duration   // submitter-observed deployment time
	frames int64           // controller frames written during deployment
}

// runCtlplane deploys one job through the scenario SDK onto n simulated
// daemons and reports the §5.2 deployment-time measures. The deployed
// app records when its first instruction runs; the delay from Submit is
// the per-node deployment time.
func runCtlplane(n, nodes int, seed int64) (*ctlplaneRun, error) {
	run := &ctlplaneRun{}
	var dep *splay.Deployment // set before any instance runs
	var mu sync.Mutex         // instances start on every kernel partition
	sc := splay.Scenario{
		Seed:    seed,
		Testbed: splay.PlanetLab(n),
		// The PlanetLab slowness tail reaches ten seconds per probe; give
		// the superset machinery headroom at 5,000 daemons.
		RegisterTimeout: 60 * time.Second,
		Apps: []splay.AppSpec{{
			Name:  "ctlapp",
			Nodes: nodes,
			App: splay.AppFunc(func(env *splay.Env) error {
				mu.Lock()
				run.delays = append(run.delays, env.Now().Sub(dep.SubmittedAt()))
				mu.Unlock()
				return nil
			}),
		}},
	}
	sess, err := sc.Start(context.Background())
	if err != nil {
		return nil, err
	}
	defer sess.Stop()

	dep = sess.Deploy(sc.Apps[0])
	job, err := dep.Wait()
	if err != nil {
		return nil, err
	}
	if job.State != splay.JobRunning {
		return nil, fmt.Errorf("job did not reach running")
	}
	if len(run.delays) != nodes {
		return nil, fmt.Errorf("%d instances started, want %d", len(run.delays), nodes)
	}
	run.frames = dep.Frames()
	run.submit = job.StartedAt.Sub(dep.SubmittedAt())
	return run, nil
}
