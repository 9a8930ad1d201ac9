// Command splayctl is the client for a SPLAY platform — splayd -host, or
// any Session.Host handler — and the config plane's local tool. It runs
// no service of its own.
//
// Usage:
//
//	splayctl submit -key k [-app chord] [-nodes 10] [-duration 30s] [-f scenario] [-wait] http://host:8080
//	splayctl jobs -key k [-job id] http://host:8080
//	splayctl kill -key k -job id http://host:8080
//	splayctl usage -key k -tenant name http://host:8080
//	splayctl watch -key k [-job id] [-every 2s] http://host:8080
//	splayctl daemons -key ko http://host:8080
//	splayctl faults inject -key ko [-kind crash|partition] [-count n] [-fraction f] http://host:8080
//	splayctl faults heal -key ko http://host:8080
//	splayctl apply scenario.yaml
//	splayctl validate scenario.yaml [more.yaml ...]
//	splayctl catalog
//
// The tenant subcommands (submit, jobs, kill, usage, watch -job) act as
// the tenant owning -key. Submissions are serialized Scenarios: built
// from -app/-nodes/-params/-duration, or shipped from -file / -f (use
// "-" for stdin). A -file that is a scenario document
// (splay.IsConfigDocument) is compiled client-side against the built-in
// catalog, so typed errors surface before any network round-trip and
// what travels is always the canonical wire form. An open-ended
// deployment is a job with a long -duration, ended by kill.
//
// The operator subcommands present the platform's operator key. "watch"
// without -job polls /metrics and renders the aggregator's live
// population view — the in-flight counterpart of the paper's log collector;
// with -job it follows one hosted job (as its tenant) until it settles.
// "daemons" counts the connected fleet. "faults inject -kind crash"
// drops daemon control sessions (daemons redial with backoff), "-kind
// partition" blacklists a fraction of the population — the controller
// pushes the blacklist to every daemon, whose sandboxes then refuse
// traffic to the cut side — and "faults heal" clears the blacklist.
//
// Every subcommand bounds each HTTP request with -timeout; a platform's
// refusal arrives as its typed error (code and detail). Exit status is 2
// for a command-line mistake, 1 for any other failure.
//
// The config-plane subcommands need no platform: "apply" compiles a
// scenario document and runs it in-process on a fresh simulated (or
// live) testbed — "submit -f" sends one to a platform instead —
// "validate" type-checks documents against the catalog, and "catalog"
// prints the catalog itself: every built-in application with its typed
// parameters, defaults and bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	splay "github.com/splaykit/splay"
)

// errUsage marks a command-line mistake; the flag package has by then
// printed what it objected to.
var errUsage = errors.New("usage: splayctl submit|jobs|kill|usage|watch|daemons|faults|apply|validate|catalog [flags] [url|file]")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "splayctl:", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes one subcommand. Polling subcommands (watch, -wait) end
// with ctx.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	c := &cmd{ctx: ctx, stdin: stdin, stdout: stdout, stderr: stderr}
	c.fs = flag.NewFlagSet(args[0], flag.ContinueOnError)
	c.fs.SetOutput(stderr)
	c.fs.StringVar(&c.key, "key", "", "tenant key, or the operator key for watch/daemons/faults")
	c.fs.DurationVar(&c.timeout, "timeout", 30*time.Second, "per-request timeout")
	var err error
	switch args[0] {
	case "submit", "jobs", "kill", "usage":
		err = c.tenant(args[0], args[1:])
	case "watch":
		err = c.watch(args[1:])
	case "daemons":
		err = c.daemons(args[1:])
	case "faults":
		err = c.faults(args[1:])
	case "apply":
		err = c.apply(args[1:])
	case "validate":
		err = c.validate(args[1:])
	case "catalog":
		err = catalogCmd(stdout)
	default:
		return fmt.Errorf("unknown command %q: %w", args[0], errUsage)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// cmd is one invocation: its streams and the flags every platform
// subcommand shares.
type cmd struct {
	ctx     context.Context
	stdin   io.Reader
	stdout  io.Writer
	stderr  io.Writer
	fs      *flag.FlagSet
	key     string
	timeout time.Duration
}

// parseURL parses args and returns the platform URL that follows the
// flags; -key is required.
func (c *cmd) parseURL(args []string) (string, error) {
	if c.fs.Parse(args) != nil {
		return "", errUsage
	}
	if c.fs.Arg(0) == "" {
		return "", fmt.Errorf("need a platform URL (e.g. http://127.0.0.1:8080): %w", errUsage)
	}
	if c.key == "" {
		return "", fmt.Errorf("need a -key: %w", errUsage)
	}
	return strings.TrimRight(c.fs.Arg(0), "/"), nil
}

// request returns a context bounding one HTTP request.
func (c *cmd) request() (context.Context, context.CancelFunc) {
	return context.WithTimeout(c.ctx, c.timeout)
}

// sleep waits d, or less when the invocation's context ends first; it
// reports whether d ran out.
func (c *cmd) sleep(d time.Duration) bool {
	select {
	case <-c.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// operate issues one operator request to the route at url and returns
// the response body; a refusal comes back as the typed *splay.HostError.
func (c *cmd) operate(method, url string, body []byte) ([]byte, error) {
	ctx, cancel := c.request()
	defer cancel()
	return splay.Connect(url, c.key).Request(ctx, method, "", body)
}

// show prints an operator route's answer.
func (c *cmd) show(method, url string, body []byte) error {
	out, err := c.operate(method, url, body)
	if err == nil {
		_, err = c.stdout.Write(out)
	}
	return err
}

// faults drives the platform's fault drills: inject (crash or
// partition) and heal.
func (c *cmd) faults(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("need an action (inject or heal): %w", errUsage)
	}
	kind := c.fs.String("kind", splay.FaultCrash.String(),
		fmt.Sprintf("fault to inject: %s or %s", splay.FaultCrash, splay.FaultPartition))
	count := c.fs.Int("count", 0, "number of daemons to hit")
	fraction := c.fs.Float64("fraction", 0, "population fraction to hit (alternative to -count)")
	url, err := c.parseURL(args[1:])
	if err != nil {
		return err
	}
	switch args[0] {
	case splay.ActInject.String():
		body, _ := json.Marshal(map[string]any{ //nolint:errcheck // static shape
			"kind": *kind, "count": *count, "fraction": *fraction,
		})
		return c.show(http.MethodPost, url+"/faults/inject", body)
	case splay.FaultHeal.String():
		return c.show(http.MethodPost, url+"/faults/heal", nil)
	}
	return fmt.Errorf("unknown action %q (want inject or heal): %w", args[0], errUsage)
}

// daemons prints the platform's connected daemon count.
func (c *cmd) daemons(args []string) error {
	url, err := c.parseURL(args)
	if err != nil {
		return err
	}
	return c.show(http.MethodGet, url+"/daemons", nil)
}

// watch polls the platform's /metrics view until the context ends, or —
// with -job — one hosted job's lifecycle until it settles; a terminal
// state other than done is an error.
func (c *cmd) watch(args []string) error {
	every := c.fs.Duration("every", 2*time.Second, "poll interval")
	jobID := c.fs.String("job", "", "hosted job to follow until it settles (as -key's tenant)")
	url, err := c.parseURL(args)
	if err != nil {
		return err
	}
	if *jobID != "" {
		job, err := c.follow(splay.Connect(url, c.key), *jobID, *every, c.stdout)
		if err != nil {
			return err
		}
		return settled(job.ID, job.State, job.Error)
	}
	for {
		out, err := c.operate(http.MethodGet, url+"/metrics", nil)
		if err != nil {
			if c.ctx.Err() != nil {
				return nil
			}
			return err
		}
		var snaps []splay.SeriesSnapshot
		if err := json.Unmarshal(out, &snaps); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		fmt.Fprintf(c.stdout, "%s — %d series\n", time.Now().Format(time.TimeOnly), len(snaps))
		printSeries(c.stdout, snaps)
		fmt.Fprintln(c.stdout)
		if !c.sleep(*every) {
			return nil
		}
	}
}

// printSeries renders an aggregated view as one table row per series.
func printSeries(w io.Writer, snaps []splay.SeriesSnapshot) {
	fmt.Fprintf(w, "  %-28s %-12s %6s %12s %12s %12s %12s\n",
		"series", "kind", "nodes", "total/sum", "mean", "p50", "p90")
	for _, s := range snaps {
		switch s.Kind {
		case "counter":
			fmt.Fprintf(w, "  %-28s %-12s %6d %12d\n", s.Name, s.Kind, s.Nodes, s.Total)
		case "gauge":
			fmt.Fprintf(w, "  %-28s %-12s %6d %12d\n", s.Name, s.Kind, s.Nodes, s.Sum)
		default:
			fmt.Fprintf(w, "  %-28s %-12s %6d %12d %12.1f %12d %12d\n",
				s.Name, s.Kind, s.Nodes, s.Count, s.Mean, s.P50, s.P90)
		}
	}
}

// follow polls one hosted job until it settles, printing a row to rows
// per state change.
func (c *cmd) follow(cl *splay.Remote, id string, every time.Duration, rows io.Writer) (splay.HostJob, error) {
	last := ""
	for {
		ctx, cancel := c.request()
		job, err := cl.Job(ctx, id)
		cancel()
		if err != nil {
			return job, err
		}
		if line := fmt.Sprintf("%s %s nodes=%d", job.ID, job.State, job.Nodes); line != last {
			fmt.Fprintf(rows, "%s  %s\n", time.Now().Format(time.TimeOnly), line)
			last = line
		}
		if job.State.Terminal() {
			return job, nil
		}
		if !c.sleep(every) {
			return job, c.ctx.Err()
		}
	}
}

// settled is the verdict on a terminal state: anything but done fails
// the command.
func settled(id string, state splay.HostJobState, detail string) error {
	if state != splay.HostDone {
		return fmt.Errorf("job %s settled as %s: %s", id, state, detail)
	}
	return nil
}

// tenant speaks to the platform as the tenant owning -key: submit
// serialized scenarios, list jobs, kill one, read usage.
func (c *cmd) tenant(verb string, args []string) error {
	jobID := c.fs.String("job", "", "job id (jobs: show one; kill: required)")
	tenant := c.fs.String("tenant", "", "tenant to account (usage)")
	app := c.fs.String("app", "chord", "application to deploy (submit)")
	nodes := c.fs.Int("nodes", 10, "instances to deploy (submit)")
	params := c.fs.String("params", "", "JSON parameter document for the app (submit)")
	name := c.fs.String("name", "", "job name (submit)")
	seed := c.fs.Int64("seed", 0, "scenario seed (submit; 0 = platform default)")
	duration := c.fs.Duration("duration", 30*time.Second, "workload window (submit)")
	file := c.fs.String("file", "", "submit this scenario — wire JSON, or a document compiled client-side (\"-\" = stdin)")
	c.fs.StringVar(file, "f", "", "shorthand for -file")
	wait := c.fs.Bool("wait", false, "poll until the job settles and print its result (submit)")
	url, err := c.parseURL(args)
	if err != nil {
		return err
	}
	cl := splay.Connect(url, c.key)
	ctx, cancel := c.request()
	defer cancel()
	switch verb {
	case "submit":
		var data []byte
		if *file != "" {
			data, err = c.readScenario(*file)
		} else {
			data, err = splay.Scenario{
				Name: *name, Seed: *seed, Duration: *duration,
				Apps: []splay.AppSpec{{Name: *app, Nodes: *nodes, Params: []byte(*params)}},
			}.Marshal()
		}
		if err != nil {
			return err
		}
		return c.submit(cl, data, *wait)
	case "jobs":
		if *jobID != "" {
			job, err := cl.Job(ctx, *jobID)
			if err != nil {
				return err
			}
			return c.printJSON(job)
		}
		jobs, err := cl.Jobs(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "%-12s %-10s %6s  %-20s %s\n", "id", "state", "nodes", "apps", "error")
		for _, j := range jobs {
			fmt.Fprintf(c.stdout, "%-12s %-10s %6d  %-20s %s\n",
				j.ID, j.State, j.Nodes, strings.Join(j.Apps, ","), j.Error)
		}
		return nil
	case "kill":
		if *jobID == "" {
			return fmt.Errorf("need a -job id: %w", errUsage)
		}
		if err := cl.Kill(ctx, *jobID); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "killed %s\n", *jobID)
		return nil
	default: // usage
		if *tenant == "" {
			return fmt.Errorf("need a -tenant name: %w", errUsage)
		}
		u, err := cl.Usage(ctx, *tenant)
		if err != nil {
			return err
		}
		return c.printJSON(u)
	}
}

// readScenario reads one scenario argument ("-" = stdin) into the wire
// bytes a platform admits. A document is compiled here, not
// server-side: typed *ConfigErrors carry the document position, and what
// travels is exactly what a handwritten Scenario would marshal.
func (c *cmd) readScenario(path string) ([]byte, error) {
	data, err := c.readDoc(path)
	if err == nil && splay.IsConfigDocument(data) {
		data, err = splay.CompileConfig(data)
	}
	return data, err
}

// readDoc reads one document argument ("-" = stdin).
func (c *cmd) readDoc(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(c.stdin)
	}
	return os.ReadFile(path)
}

// submit ships wire scenario bytes to the platform and, with wait,
// follows the job on stderr until it settles, then prints its result.
// Every HTTP request is individually bounded by -timeout.
func (c *cmd) submit(cl *splay.Remote, data []byte, wait bool) error {
	ctx, cancel := c.request()
	job, err := cl.SubmitRaw(ctx, data)
	cancel()
	if err != nil {
		return err
	}
	if !wait {
		return c.printJSON(job)
	}
	if _, err := c.follow(cl, job.ID, time.Second, c.stderr); err != nil {
		return err
	}
	ctx, cancel = c.request()
	res, err := cl.Result(ctx, job.ID)
	cancel()
	if err != nil {
		return err
	}
	if err := c.printJSON(res); err != nil {
		return err
	}
	return settled(res.ID, res.State, res.Error)
}

// apply compiles and executes a scenario document in-process — the full
// no-Go path: testbed, deployment, faults, assertions — and prints the
// deployed jobs plus the aggregated metric view.
func (c *cmd) apply(args []string) error {
	if c.fs.Parse(args) != nil {
		return errUsage
	}
	path := c.fs.Arg(0)
	if path == "" {
		return fmt.Errorf("need a scenario document (e.g. examples/quickstart/scenario.yaml): %w", errUsage)
	}
	sc, err := splay.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	res, err := sc.Run(c.ctx)
	if res != nil {
		for _, j := range res.Jobs {
			fmt.Fprintf(c.stdout, "job %-10s %-8s %d instances\n", j.ID, j.State, len(j.Deployed))
		}
		if res.Metrics != nil {
			frames, bytes := res.Metrics.Received()
			fmt.Fprintf(c.stdout, "telemetry: %d nodes, %d frames, %d bytes\n",
				res.Metrics.Nodes(), frames, bytes)
			printSeries(c.stdout, res.Metrics.Snapshot())
		}
	}
	return err
}

// validate type-checks scenario documents against the built-in catalog
// without running anything; any invalid document fails the command.
func (c *cmd) validate(args []string) error {
	if c.fs.Parse(args) != nil || c.fs.NArg() == 0 {
		return fmt.Errorf("need at least one scenario document: %w", errUsage)
	}
	bad := 0
	for _, path := range c.fs.Args() {
		data, err := c.readDoc(path)
		if err == nil {
			err = splay.ValidateConfig(data)
		}
		if err != nil {
			bad++
			fmt.Fprintf(c.stderr, "%s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(c.stdout, "%s: ok\n", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d documents invalid", bad, c.fs.NArg())
	}
	return nil
}

// catalogCmd prints the built-in app catalog: what a document may
// reference, each parameter's kind, default and bounds.
func catalogCmd(w io.Writer) error {
	for i, app := range splay.BuiltinCatalog().Apps() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s — %s\n", app.Name, app.Doc)
		fmt.Fprintf(w, "  %-16s %-9s %-10s %-22s %s\n", "param", "kind", "default", "bounds", "doc")
		for _, p := range app.Params {
			fmt.Fprintf(w, "  %-16s %-9s %-10s %-22s %s\n",
				p.Name, p.Kind, p.FormatDefault(), p.FormatBounds(), p.Doc)
		}
	}
	return nil
}

// printJSON renders one API object for scripts: indented, stable keys.
func (c *cmd) printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(c.stdout, string(out))
	return err
}
