// Command splay-experiments regenerates the paper's evaluation: every
// figure and table of §5 as a runnable experiment printing the same
// rows/series (see DESIGN.md for the index and EXPERIMENTS.md for the
// recorded results).
//
// Each experiment is a single-threaded deterministic simulation, so
// independent experiments shard across CPU cores; -parallel controls the
// worker count (default GOMAXPROCS, 1 forces the old serial behaviour).
// Outputs are buffered per experiment and printed in order: the bytes are
// identical whatever the parallelism.
//
// Usage:
//
//	splay-experiments -list
//	splay-experiments -run fig6a [-scale 0.5] [-seed 2009]
//	splay-experiments -run all -scale 0.2 [-parallel 8]
//	splay-experiments -run lookup100k -workers 4
//	splay-experiments -run obsplane -live
//
// -live streams each experiment's rows to stdout as the simulation
// produces them instead of buffering per experiment (one experiment at
// a time, so rows stay ordered): the way to watch a monitored
// deployment — obsplane's aggregator view — converge in flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/splaykit/splay/experiments"
)

// errUsage marks a command-line mistake: a bad flag (which the flag package
// has by then printed) or a flag value out of range.
var errUsage = errors.New("usage: splay-experiments -list | -run id|all [-scale s] [-seed n] [-parallel n] [-workers n] [-live]")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "splay-experiments:", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes the command line, printing results to stdout. Nothing is
// printed for a run that cannot start: a scale outside (0,1] or an unknown
// id is reported before the first header.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("splay-experiments", flag.ContinueOnError)
	sel := fs.String("run", "", "experiment id, or 'all'")
	scale := fs.Float64("scale", 1.0, "population/workload scale in (0,1]")
	seed := fs.Int64("seed", 2009, "random seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (1 = serial)")
	workers := fs.Int("workers", 0, "threads per sharded-kernel experiment (lookup100k); 0/1 = serial, results identical regardless")
	list := fs.Bool("list", false, "list experiments")
	live := fs.Bool("live", false, "stream rows to stdout as they are produced (serial)")
	if fs.Parse(args) != nil {
		return errUsage
	}
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale %v is outside (0,1]: %w", *scale, errUsage)
	}
	known := experiments.IDs()
	ids := []string{*sel}
	switch {
	case *sel == "all":
		ids = known
	case *sel != "" && !slices.Contains(known, *sel):
		return fmt.Errorf("unknown experiment %q (have %v)", *sel, known)
	}

	if *list || *sel == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range known {
			fmt.Fprintln(stdout, "  "+id)
		}
		if *sel == "" {
			return nil
		}
	}

	specs := make([]experiments.Spec, len(ids))
	for i, id := range ids {
		specs[i] = experiments.Spec{ID: id, Opt: experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers}}
	}
	start := time.Now()

	header := func(id string) { fmt.Fprintf(stdout, "=== %s (scale %.2f) ===\n", id, *scale) }
	footer := func(id string, res *experiments.Result, elapsed time.Duration) {
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "metric %-28s %.3f\n", k, res.Metrics[k])
		}
		fmt.Fprintf(stdout, "=== %s done in %s ===\n\n", id, elapsed.Round(time.Millisecond))
	}

	if *live {
		// Live mode: rows reach stdout the moment the simulation writes
		// them, so in-flight views (obsplane's aggregator rows) render
		// while the experiment runs rather than after it.
		for _, s := range specs {
			header(s.ID)
			opt := s.Opt
			opt.Out = stdout
			t0 := time.Now()
			res, err := experiments.Run(s.ID, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", s.ID, err)
			}
			footer(s.ID, res, time.Since(t0))
		}
		return nil
	}

	// Stream results in submission order as they complete: the bytes are
	// identical to a serial run, but progress is visible. Printing stops at
	// the first failure, which is returned once the pool has drained.
	var mu sync.Mutex
	var failed error
	pending := make(map[int]experiments.Outcome)
	cursor := 0
	experiments.RunParallelFunc(specs, *parallel, func(i int, oc experiments.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		pending[i] = oc
		for failed == nil {
			next, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			cursor++
			header(next.ID)
			if next.Err != nil {
				failed = fmt.Errorf("%s: %w", next.ID, next.Err)
				break
			}
			stdout.Write(next.Output) //nolint:errcheck
			footer(next.ID, next.Res, next.Elapsed)
		}
	})
	if failed != nil {
		return failed
	}
	if len(specs) > 1 {
		fmt.Fprintf(stdout, "total: %d experiments in %s (%d workers)\n",
			len(specs), time.Since(start).Round(time.Millisecond), *parallel)
	}
	return nil
}
