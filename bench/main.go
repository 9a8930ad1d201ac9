// Command bench is splay-bench: the repository's benchmark. It runs four
// named workloads end to end through the public splay SDK — Scenario →
// controller → daemons → rpc → simnet → kernel — with tracing off,
// prints every end-to-end metric by name with its unit, sample count and
// failure share, and checks the outputs. With -trace 1 it repeats the
// workload under its own span recorder and a CPU profile and then times
// each internal package in isolation (layer probes). See README.md.
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh -workload chord_plain -seed 7    # one, result JSON last
//	bash bench/run.sh -workload chord_plain -trace 1   # per-layer metrics
//	bash bench/run.sh -runs 5 -out a.json              # a result set
//	bash bench/run.sh -compare a.json b.json           # two sets, judged
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Exit codes.
const (
	exitOK        = 0
	exitIncorrect = 1 // a run failed or a correctness check did; -compare found a worse metric
	exitUsage     = 2
	exitGuard     = 3 // a guard rail (wall deadline, heap ceiling) ended the run
	exitDigest    = 4 // -compare: same-seed digests or exact-repeat metrics differ
)

const (
	defaultSeconds = 10
	// Set-up is measured minSetups to maxSetups times per run, each in a
	// fresh process, until the measurements add up to setupBudget.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
	// wallDeadline bounds one workload execution (set-up plus window) so a
	// whole run, children included, ends inside the driver's 180 s.
	wallDeadline = 60 * time.Second
)

// workloads is the benchmark, in running order. simPerWallS was measured
// on the reference 2-core box (BENCHMARK.json records the baseline).
var workloads = []*workload{
	{
		name:        "chord_plain",
		why:         "plain, already-sharded path (two kernel partitions): task switching, simnet delivery and the rpc codec do the work; control plane and metrics do none",
		simPerWallS: 42, sliceSim: 20 * time.Second,
		run: runChordPlain,
	},
	{
		name:        "chord_observed",
		why:         "same ring and traffic through the metrics, fault and assert planes, which force one partition: the run a one-simulation-path change must speed up while chord_plain stays put",
		simPerWallS: 28, sliceSim: 15 * time.Second,
		run: runChordObserved,
	},
	{
		name:        "platform_jobs",
		why:         "control-plane heavy: document compile at the door, hosting state machine, controller selection, ctlproto frames, daemon instance create/kill; hundreds of small deploy/teardown cycles",
		simPerWallS: 18, sliceSim: 10 * time.Second,
		run: runPlatformJobs,
	},
	{
		name:        "cyclon_churn",
		why:         "the separate churn start path: instance start/kill, hosts going down, rpc redial/teardown toward dead peers, list-shaped payloads; the writes-beside-reads use of core/rpc/simnet",
		simPerWallS: 24.5, sliceSim: 12 * time.Second,
		run: runCyclonChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	scale     float64
	setups    int
	setupOnly bool
	traceDir  string
	runs      int
	out       string
	compare   bool
	benchmark string
}

// runRecord is what one run of one workload produced: the line a child
// process hands its parent and the element of a result set.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Scale     float64            `json:"scale"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []string           `json:"checks,omitempty"`
	Digest    string             `json:"sim_digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	// SliceSpeeds is every window slice's sim_speed in window order: the
	// raw material of the median, kept so a result set can be re-read
	// with another estimator.
	SliceSpeeds []float64 `json:"slice_speeds,omitempty"`
}

const recordPrefix = "record: "

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result JSON as the last line (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: ring ids, keys, churn expansion and job seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "nominal wall seconds of the measurement window (sets the simulated window)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, counts, cpu_share.*, probes — the per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "population scale (smoke runs use 0.05)")
	flag.IntVar(&o.setups, "setups", 0, "how many times set-up is measured, each in a fresh process, median reported (0 = 3, and up to 9 of a cheap one)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: run set-up alone and print its seconds")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build", "where a traced run writes its spans and CPU profile")
	flag.IntVar(&o.runs, "runs", 1, "all-workloads mode: runs per workload, seeds seed … seed+runs-1")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: write the result set here (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare a.json b.json")
	flag.StringVar(&o.benchmark, "benchmark", "", "BENCHMARK.json to take bounds from (default: ./ then ../)")
	flag.Parse()

	switch {
	case o.compare:
		if flag.NArg() != 2 {
			fail(exitUsage, "bench: -compare needs two result sets")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1), o.benchmark, os.Stdout))
	case flag.NArg() > 0:
		fail(exitUsage, "bench: unexpected argument %q", flag.Arg(0))
	case o.seconds < 1 || o.scale <= 0 || o.scale > 1 || o.setups < 0 || o.runs < 1:
		fail(exitUsage, "bench: -seconds and -runs must be at least 1, -setups at least 0 and -scale in (0,1]")
	case o.workload == "":
		os.Exit(runAll(o))
	}
	w := workloadByName(o.workload)
	if w == nil {
		fail(exitUsage, "bench: unknown workload %q", o.workload)
	}
	os.Exit(runOne(w, o))
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// execute runs the workload once in this process under the guard rails.
func execute(w *workload, o options, tr *tracer, prof *cpuProfile) (*outcome, error) {
	rc := &runCtx{seed: o.seed, seconds: o.seconds, scale: o.scale, tr: tr, prof: prof, setupOnly: o.setupOnly}
	rc.guard = startGuard(w.name, wallDeadline)
	defer rc.guard.close()
	return w.run(rc, w)
}

// runOne is the single-workload mode the driver uses: human-readable
// lines first, the result object last.
func runOne(w *workload, o options) int {
	if o.setupOnly {
		out, err := execute(w, o, nil, nil)
		if err != nil {
			return report(err)
		}
		fmt.Printf("setup_s: %v\n", out.setup.Seconds())
		return exitOK
	}
	rec := &runRecord{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace}
	var out *outcome
	var err error
	if o.trace == 0 {
		out, err = runUntraced(w, o, rec)
	} else {
		out, err = runTraced(w, o, rec)
	}
	if err != nil {
		return report(err)
	}
	rec.Attempted, rec.Failed, rec.Digest = out.attempted, out.failed, out.digest
	rec.Checks = append(rec.Checks, out.checks...)
	rec.Correct = len(rec.Checks) == 0
	printRecord(os.Stdout, rec)
	return finish(rec)
}

// report prints a failed run's error and picks its exit code.
func report(err error) int {
	fmt.Fprintln(os.Stderr, err)
	var ge *guardError
	if errors.As(err, &ge) {
		return exitGuard
	}
	return exitIncorrect
}

// runUntraced measures the end-to-end metrics: set-up and window here
// with tracing off, then set-up alone again in fresh processes.
func runUntraced(w *workload, o options, rec *runRecord) (*outcome, error) {
	out, err := execute(w, o, nil, nil)
	if err != nil {
		return nil, err
	}
	setups := []time.Duration{out.setup}
	total := out.setup
	// -setups 0: three set-ups, and more of a cheap one (up to nine, while
	// they add up to under two seconds) — a 0.2 s set-up needs more samples
	// for a steady median than a 3 s one.
	more := func() bool {
		if o.setups > 0 {
			return len(setups) < o.setups
		}
		return len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget)
	}
	for more() {
		stdout, err := child(o, "-workload", w.name, "-setup-only")
		if err != nil {
			return nil, err
		}
		s, err := scanLine(stdout, "setup_s: ")
		if err != nil {
			return nil, err
		}
		secs, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: child set-up time %q: %w", s, err)
		}
		d := time.Duration(secs * float64(time.Second))
		setups = append(setups, d)
		total += d
	}
	rec.Metrics, rec.Samples = endToEndValues(out, setups)
	for _, d := range endToEnd {
		if v := rec.Metrics[d.Name]; v <= 0 {
			rec.Checks = append(rec.Checks, fmt.Sprintf("end-to-end metric %s is %v, want > 0", d.Name, v))
		}
	}
	for _, s := range out.slices {
		rec.SliceSpeeds = append(rec.SliceSpeeds, s.sim.Seconds()/s.wall.Seconds())
	}
	return out, nil
}

// runTraced produces the per-layer metrics: the untraced twin runs first
// in a fresh process (its sim_speed is the overhead's base, its digest
// must equal ours — observing changes nothing), then the workload runs
// here under the span recorder and the CPU profile, then the probes.
func runTraced(w *workload, o options, rec *runRecord) (*outcome, error) {
	stdout, err := child(o, "-workload", w.name, "-trace", "0", "-setups", "1")
	if err != nil {
		return nil, err
	}
	line, err := scanLine(stdout, recordPrefix)
	if err != nil {
		return nil, err
	}
	var twin runRecord
	if err := json.Unmarshal([]byte(line), &twin); err != nil {
		return nil, fmt.Errorf("bench: untraced twin's record: %w", err)
	}

	tr, prof := newTracer(), &cpuProfile{}
	out, err := execute(w, o, tr, prof)
	if err != nil {
		return nil, err
	}
	leaves, err := leafSamples(prof.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares, top := cpuShares(leaves)
	probed, err := runProbes(o.scale)
	if err != nil {
		return nil, err
	}
	rec.Metrics = perLayerValues(out, tr, shares, probed, twin.Metrics["sim_speed"])

	if twin.Digest != out.digest {
		rec.Checks = append(rec.Checks, fmt.Sprintf("traced sim_digest %s differs from the untraced run's %s: observing changed the run", out.digest, twin.Digest))
	}
	for _, c := range twin.Checks {
		rec.Checks = append(rec.Checks, "untraced twin: "+c)
	}
	fmt.Printf("# %s: hottest leaf functions of the traced window\n", w.name)
	var total int64
	for _, v := range leaves {
		total += v
	}
	for _, fn := range top {
		fmt.Printf("#   %5.1f%%  %-14s %s\n", float64(leaves[fn])/float64(total)*100, cpuBucket(fn), fn)
	}
	fmt.Printf("# %s: span self times\n", w.name)
	self := tr.selfTimes()
	for _, name := range sortedKeys(self) {
		fmt.Printf("#   %-22s %v\n", name, self[name].Round(time.Microsecond))
	}
	base := fmt.Sprintf("%s-seed%d", w.name, o.seed)
	if err := tr.write(o.traceDir, base+".spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.traceDir, base+".cpu.pprof"), prof.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

// child re-executes this binary with the run's seed, size and scale plus
// args, waits for it and returns its standard output. Set-up repeats and
// the untraced twin run in fresh processes because a stopped simulated
// session cannot be reclaimed — its parked tasks stay reachable — and a
// second session in the same process would be measured against the
// first one's heap.
func child(o options, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: locating own binary: %w", err)
	}
	args = append([]string{
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace-dir", o.traceDir,
	}, args...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == exitGuard {
			return nil, &guardError{Workload: "child [" + strings.Join(args, " ") + "]", Limit: "guard rails", Observed: "exit 3", Allowed: "exit 0"}
		}
		// A child that ran but failed its checks still printed its record.
		if errors.As(err, &ee) && ee.ExitCode() == exitIncorrect && bytes.Contains(stdout.Bytes(), []byte(recordPrefix)) {
			return stdout.Bytes(), nil
		}
		return nil, fmt.Errorf("bench: child [%s]: %w", strings.Join(args, " "), err)
	}
	return stdout.Bytes(), nil
}

// scanLine returns the rest of the first output line that starts with
// prefix.
func scanLine(stdout []byte, prefix string) (string, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return rest, nil
		}
	}
	return "", fmt.Errorf("bench: child printed no %q line", strings.TrimSpace(prefix))
}

// defsFor is the metric table a record reports against.
func defsFor(trace int) []metricDef {
	if trace == 0 {
		return endToEnd
	}
	return perLayer
}

// printRecord writes the human-readable part of a result: every metric
// by name with unit and sample count, the failure share, the digest and
// the verdicts.
func printRecord(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  scale %g  trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Scale, rec.Trace)
	for _, d := range defsFor(rec.Trace) {
		n := ""
		if c, ok := rec.Samples[d.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "  %-28s %16.4f %-8s %s\n", d.Name, rec.Metrics[d.Name], d.Unit, n)
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted) * 100
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (%.3f %%)\n", rec.Attempted, rec.Failed, share)
	if len(rec.SliceSpeeds) > 0 {
		sp := sortedCopy(rec.SliceSpeeds)
		fmt.Fprintf(w, "  slice sim_speed: min %.1f  p25 %.1f  median %.1f  p75 %.1f  max %.1f\n",
			sp[0], percentile(sp, 25), median(sp), percentile(sp, 75), sp[len(sp)-1])
	}
	fmt.Fprintf(w, "sim_digest %s %s\n", rec.Workload, rec.Digest)
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
}

// finish prints the machine-readable tail — the record for a parent
// process, then the one JSON object the driver reads — and picks the
// exit code.
func finish(rec *runRecord) int {
	line, err := json.Marshal(rec)
	if err != nil {
		return report(err)
	}
	fmt.Printf("%s%s\n", recordPrefix, line)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defsFor(rec.Trace) {
		result.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	last, err := json.Marshal(result)
	if err != nil {
		return report(err)
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return exitIncorrect
	}
	return exitOK
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload -runs times, each run in a fresh process,
// prints them and a table of medians, and optionally stores the set.
func runAll(o options) int {
	var set resultSet
	code := exitOK
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			ro := o
			ro.seed = o.seed + int64(r)
			stdout, err := child(ro, "-workload", w.name, "-trace", strconv.Itoa(o.trace), "-setups", strconv.Itoa(o.setups))
			if err != nil {
				return report(err)
			}
			line, err := scanLine(stdout, recordPrefix)
			if err != nil {
				return report(err)
			}
			var rec runRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return report(fmt.Errorf("bench: %s record: %w", w.name, err))
			}
			printRecord(os.Stdout, &rec)
			if !rec.Correct {
				code = exitIncorrect
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	printMedians(os.Stdout, &set, defsFor(o.trace))
	if o.out != "" {
		data, err := json.MarshalIndent(&set, "", " ")
		if err != nil {
			return report(err)
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return report(err)
		}
	}
	return code
}
