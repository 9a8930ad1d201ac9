// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named, parameterized function that
// builds the required testbed model, runs the protocol under test in the
// simulation kernel, and prints the same rows/series the paper reports.
// The Scale option shrinks populations and workloads proportionally for
// quick runs and benchmarks; Scale 1 is the paper's setup.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for the
// recorded paper-versus-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/splaykit/splay/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Scale in (0,1] multiplies node populations, lookup counts and run
	// lengths. 1 reproduces the paper's sizes.
	Scale float64
	// Seed fixes all randomness.
	Seed int64
	// Out receives the experiment's rows; nil discards them.
	Out io.Writer
	// Workers sets the OS threads a sharded-kernel experiment may use:
	// lookup100k runs 0 or 1 single-threaded; faultplane and hostplane,
	// whose testbeds shard at full scale, pass it to Scenario.Workers,
	// where 0 means a thread per partition as far as there are processors.
	// Results are a pure function of Scale and Seed — Workers changes
	// wall-clock time only, never a metric or an output byte.
	// Single-kernel experiments ignore it.
	Workers int
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// n scales an integer quantity with a floor of min.
func (o Options) n(full, min int) int {
	v := int(float64(full) * o.Scale)
	if v < min {
		return min
	}
	return v
}

// Result carries an experiment's headline numbers so tests and
// EXPERIMENTS.md generation can assert the paper's shape.
type Result struct {
	ID      string
	Metrics map[string]float64
}

func newResult(id string) *Result {
	return &Result{ID: id, Metrics: make(map[string]float64)}
}

// Func runs one experiment.
type Func func(opt Options) (*Result, error)

// registry maps experiment ids to implementations.
var registry = map[string]Func{}

func register(id string, f Func) { registry[id] = f }

// Run executes the named experiment.
func Run(id string, opt Options) (*Result, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if opt.Scale <= 0 || opt.Scale > 1 {
		opt.Scale = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 2009
	}
	return f(opt)
}

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// printCDF emits a delay CDF as rows of "x cum%".
func printCDF(w io.Writer, label string, samples []time.Duration, points int) {
	if len(samples) == 0 {
		fmt.Fprintf(w, "%s: no samples\n", label)
		return
	}
	sorted := stats.Durations(samples).Sorted()
	fmt.Fprintf(w, "# %s — CDF over %d samples\n", label, len(sorted))
	for i := 1; i <= points; i++ {
		idx := len(sorted)*i/points - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Fprintf(w, "%-24s %8.1f%%  ≤ %v\n", label, float64(i)/float64(points)*100,
			sorted[idx].Round(time.Millisecond))
	}
}

// pctiles returns the 5/25/50/75/90th floor-index quantiles of samples,
// delegating to the stats package's single implementation of the
// convention (one sort, five lookups).
func pctiles(samples []time.Duration) [5]time.Duration {
	var out [5]time.Duration
	if len(samples) == 0 {
		return out
	}
	sorted := stats.Durations(samples).Sorted()
	for i, q := range [...]float64{0.05, 0.25, 0.50, 0.75, 0.90} {
		out[i] = sorted.Quantile(q)
	}
	return out
}
