package splay

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/logging"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simbed"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// AppSpec names one application a Scenario deploys: either a built-in
// (chord, pastry, cyclon, epidemic, bittorrent — Name alone), an inline
// App, or a Factory building the App from JSON job parameters.
type AppSpec struct {
	// Name registers the application and names it in job descriptors.
	Name string
	// App is an inline implementation (ignores Params).
	App App
	// New builds the implementation from Params. Factories must
	// tolerate nil params (daemons probe with nil before reserving).
	New Factory
	// Params is the JSON parameter document shipped with the job.
	Params []byte
	// Nodes is how many instances to deploy.
	Nodes int
	// Superset is the selection over-probe factor (0 = the controller
	// default, 1.25).
	Superset float64
	// FullList ships the whole deployment list as job.nodes instead of
	// a single rendez-vous node.
	FullList bool
	// Env tunes the capability grant and extra sandbox limits every
	// instance of this application receives.
	Env EnvConfig
	// Port is every instance's port under Scenario.Churn, where the
	// trace starts the application itself and no daemon grants one
	// (default 9000); controller deployments ignore it.
	Port int
}

// Collect declares what a Scenario's observability plane gathers while
// the experiment runs.
type Collect struct {
	// Metrics runs an aggregator (on a dedicated monitoring host in
	// simulation, on an ephemeral loopback port live) and lets
	// instances stream instrument deltas to it via Env.StartReporting.
	// The controller's own instruments report over the same wire.
	Metrics bool
	// ReportEvery is the per-node delta report period (default 5s).
	ReportEvery time.Duration
	// Key authenticates metric streams (default "splay").
	Key string
	// MetricsPort is the aggregator's port on the simulated monitoring
	// host (default 7000); live testbeds always bind ephemerally.
	MetricsPort int
	// Logs receives daemon and instance log lines (nil discards).
	Logs io.Writer
}

// Scenario is the declarative description of one experiment: a testbed,
// the applications to deploy on it, optional churn, and what to collect.
// Run executes it end to end; Start returns a Session for experiments
// that interleave custom phases (static convergence, measurement
// windows, live watch rows) with the provisioned system.
//
// The same Scenario runs on a simulated testbed in virtual time or on a
// live testbed on real sockets; application code sees the same Env
// either way.
type Scenario struct {
	// Name labels the scenario (job IDs, logs).
	Name string
	// Seed fixes all randomness (0 = 2009 in simulation, wall-clock
	// live).
	Seed int64
	// Testbed is where to provision: PlanetLab(n), ModelNet(n),
	// Uniform(n, rtt, bps) or Live(n).
	Testbed Testbed
	// Apps are the applications to deploy.
	Apps []AppSpec
	// Churn hands the population to a script or trace (simulated
	// testbeds only): no controller and no daemons, each join starts
	// Apps[0] on the slot's host. Collect, network and RPC faults, trigger
	// rules and Assert compose with it; what needs daemons returns
	// ErrNoController.
	Churn ChurnSpec
	// Collect configures the observability plane.
	Collect Collect
	// Faults is the declarative fault schedule: timed injections plus
	// closed-loop trigger rules, armed right after deployment. The zero
	// plan injects nothing and leaves every schedule untouched. Under
	// Churn, Crash/Restart events and ActKill/ActGrow actions fail Start
	// with ErrNoController: the trace owns who is up.
	Faults FaultPlan
	// Assert are metric predicates the run must satisfy; violations
	// surface from Run as a typed *AssertionError alongside the still
	// valid Result, under Churn as without. Trigger rules and assertions
	// read the aggregated telemetry and therefore need Collect.Metrics.
	Assert []Assertion
	// Settle is the daemon connect window before deployments begin
	// (default 45 simulated seconds; live, a 10s readiness deadline
	// polled on the controller's registry).
	Settle time.Duration
	// Duration is Run's workload window after deployment (default 30s).
	Duration time.Duration
	// RegisterTimeout bounds deployment probing (0 = the controller
	// default, 30s; heavy-tailed testbeds want 60s).
	RegisterTimeout time.Duration
	// ControllerPort overrides the daemon-connection port (default
	// 5555 simulated, ephemeral live).
	ControllerPort int
	// Workers sets how many OS threads may drive a simulated testbed's
	// kernel. It is a performance knob only: a scenario's result is a
	// pure function of Seed and the scenario itself, never of Workers or
	// GOMAXPROCS (invariant 9, DESIGN.md). Plain scenarios at large
	// populations provision a sharded kernel — the partition count comes
	// from autoParts, a pure function of the host population, so the
	// schedule can never depend on Workers — and 0 means
	// min(partitions, GOMAXPROCS): a thread per partition as far as the
	// machine has processors for them, every partition inline on the
	// caller's goroutine when it has one. Small populations, PlanetLab
	// testbeds and scenarios with collection, logging, faults, assertions
	// or churn run a single partition, where Workers changes nothing.
	Workers int
}

// Session is a provisioned scenario: controller started, daemons
// connected (or the churn trace replaying), collection plane up. It
// hands experiments the handles the declarative surface cannot know
// about — deployments, virtual-time control, and the aggregated view.
type Session struct {
	sc   Scenario
	seed int64
	live bool

	k      *sim.Kernel
	pk     *sim.ParKernel // drives k (partition 0) plus any further partitions (simulated testbeds)
	nw     *simnet.Network
	netIns simnet.Instruments // zero unless a simulated testbed collects

	rt      core.Runtime
	node    transport.Node // the controller's host (reporter dialing)
	ctl     *controller.Controller
	agg     *metrics.Aggregator
	reg     *core.Registry
	collect *core.Collect // where instances and the session's own reporters stream to
	host    *Host

	ex *churn.Executor // replays Scenario.Churn onto slots (nil otherwise)

	// slots is the population table: every provisioned daemon in both
	// worlds, or every churn-trace slot. The rest of the fault plane (see
	// faultplane.go) exists only when the scenario declares faults or
	// assertions.
	slots    []*slot
	ctlAddr  transport.Addr
	rpcRules *faults.RPCRules
	frng     *rand.Rand
	eng      *faults.Engine
	act      *actuators

	startErr error
	stopped  atomic.Bool
}

// Start provisions the scenario and returns a Session. The caller owns
// it and must Stop it (Run does both).
func (sc Scenario) Start(ctx context.Context) (*Session, error) {
	if sc.Testbed == nil {
		return nil, errors.New("splay: scenario needs a testbed")
	}
	switch tb := sc.Testbed.(type) {
	case *simTestbed:
		return sc.startSim(tb)
	case *liveTestbed:
		return sc.startLive(ctx, tb)
	}
	return nil, fmt.Errorf("splay: unknown testbed %T", sc.Testbed)
}

// Run executes the scenario end to end: provision, deploy every app,
// run the workload window, stop the jobs, and return the result.
func (sc Scenario) Run(ctx context.Context) (*Result, error) {
	sess, err := sc.Start(ctx)
	if err != nil {
		return nil, err
	}
	defer sess.Stop()
	res := &Result{Metrics: sess.Telemetry()}
	if !sc.Churn.Enabled() {
		for _, spec := range sc.Apps {
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			job, err := sess.Deploy(spec).Wait()
			if err != nil {
				return nil, err
			}
			if job.State != JobRunning {
				return nil, fmt.Errorf("splay: job %s is %s: %s", job.ID, job.State, job.Err)
			}
			res.Jobs = append(res.Jobs, job)
		}
	}
	// Arm the fault plan with the deployed system as its time origin:
	// +0 on the plan's clock is "deployment just finished".
	if err := sess.ArmFaults(); err != nil {
		return nil, err
	}
	dur := sc.Duration
	if dur <= 0 {
		dur = 30 * time.Second
	}
	sess.RunFor(dur)
	for _, job := range res.Jobs {
		sess.StopJob(job.ID) //nolint:errcheck // best-effort teardown
	}
	if sess.startErr != nil {
		return nil, sess.startErr // a churned-in slot's factory failed
	}
	// Assertion failures are results, not provisioning errors: the
	// Result still carries the telemetry that explains them.
	if err := sess.CheckAssertions(); err != nil {
		return res, err
	}
	return res, nil
}

// startSim provisions on the simulation kernel — the one simulated start.
// Kernel, network, per-partition runtimes, collection plane, RPC fault
// filter, registry and logger are built the same way for every scenario;
// only who provisions the population forks: the controller and its
// daemons, or the churn executor. The sequence of kernel events is pinned
// by the experiment goldens (ctlplane, obsplane): aggregator first (when
// collecting), then the population.
func (sc Scenario) startSim(tb *simTestbed) (*Session, error) {
	seed := sc.Seed
	if seed == 0 {
		seed = 2009
	}
	s := &Session{sc: sc, seed: seed}
	churned, collecting := sc.Churn.Enabled(), sc.Collect.Metrics
	if churned {
		if len(sc.Apps) != 1 {
			return nil, fmt.Errorf("splay: a churn scenario drives exactly one app (have %d)", len(sc.Apps))
		}
		if err := needsController(sc.Faults); err != nil {
			return nil, err
		}
	}

	// Host layout. Controller-provisioned: [ctl, mon?, daemons…]. Churned:
	// [slots…, mon?] — slot i stays host i, there is no controller host,
	// and the monitoring host is appended only when collecting, so churn
	// without collection keeps the link model and schedule of its trace.
	mon := 0
	if collecting {
		mon = 1
	}
	first, pop, monHost := 1+mon, tb.daemons, 1
	total := first + pop
	if churned {
		first, pop, monHost = 0, sc.Churn.Slots(), sc.Churn.Slots()
		total = pop + mon
	}
	model, proc := tb.build(total, seed)

	// Partition count: a pure function of the host population (never of
	// Workers — invariant 9), restricted to plain scenarios. Collection,
	// logging, faults, assertions and churn keep their single-partition
	// planes: the aggregator, fault actuators, shared loggers and the
	// churn executor all assume one kernel owns every host. So does a
	// testbed's processing-delay hook (PlanetLab): it draws every host's
	// jitter from one stream, which partitions would consume in thread
	// order — a data race, and a result that depends on the machine.
	parts := 1
	lookahead := time.Duration(0)
	if !collecting && sc.Collect.Logs == nil && sc.Faults.Empty() && len(sc.Assert) == 0 && !churned && proc == nil {
		if p := autoParts(total); p > 1 {
			if md, ok := model.(simnet.MinDelayModel); ok && md.MinDelay() > 0 {
				parts, lookahead = p, md.MinDelay()
			}
		}
	}
	workers := sc.Workers
	if workers == 0 {
		// Auto: a thread per partition, but never more threads than
		// processors — they would only take turns at the window barrier.
		workers = min(parts, runtime.GOMAXPROCS(0))
	}
	// The one-partition bed is the plain single-kernel wiring (partition 0
	// draws the plain seed), so single-partition scenarios keep their exact
	// historical schedules. The session itself lives where host 0 does (the
	// controller, or churn slot 0): partition 0.
	bed, err := simbed.New(parts, workers, lookahead, model, total, seed, proc)
	if err != nil {
		return nil, err
	}
	nw := bed.Net
	s.pk, s.k, s.nw, s.rt = bed.Par, bed.K, nw, bed.Runtime(0)

	if collecting {
		// Network-global instruments: the ground truth monitoring
		// overhead is measured against.
		netReg := metrics.NewRegistry()
		s.netIns = simnet.NewInstruments(netReg)
		nw.SetInstruments(s.netIns)

		every, key := sc.Collect.reportDefaults()
		port := sc.Collect.MetricsPort
		if port == 0 {
			port = 7000
		}
		s.k.Go(func() {
			if s.agg, err = metrics.NewAggregator(nw.Node(monHost), port, s.k.Go); err == nil {
				s.agg.Authorize(key)
			}
		})
		s.pk.Run()
		if err != nil {
			return nil, fmt.Errorf("splay: aggregator: %w", err)
		}
		s.collect = &core.Collect{Addr: s.agg.Addr(), Key: key, Every: every}
	}

	if err = s.buildRegistry(); err != nil {
		return nil, err
	}
	lg := sc.simLogger(s.rt)
	if churned {
		err = s.startChurn(lg)
	} else {
		err = s.startDaemons(first, pop, bed, lg)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// startDaemons provisions the controller on host 0 and pop daemons from
// host first on, staggered 2ms apart by host index, then runs the settle
// window.
func (s *Session) startDaemons(first, pop int, bed *simbed.Bed, lg core.Logger) error {
	sc, nw := s.sc, s.nw
	ctlReg, dmnIns := s.newController(nw.Node(0), controller.DefaultConfig())
	ctl := s.ctl
	s.k.Go(func() {
		if s.startErr = ctl.Start(); s.startErr == nil && ctlReg != nil {
			s.report("ctl", ctlReg)
		}
	})
	s.ctlAddr = ctl.Addr()
	for i := first; i < first+pop; i++ {
		host := i
		// A daemon lives on its host's kernel partition with that
		// partition's runtime.
		part, drt := nw.Host(host).Part(), bed.Runtime(host)
		dcfg := daemon.DefaultConfig(simnet.HostName(host))
		if !sc.Faults.Empty() {
			// Fault-plane sessions survive their own faults: daemons
			// redial a lost controller session with jittered backoff.
			dcfg.Reconnect = true
		}
		mk := func() *daemon.Daemon {
			d := daemon.New(drt, nw.Node(host), s.reg, dcfg, lg)
			if s.collect != nil {
				d.SetInstruments(dmnIns)
			}
			return d
		}
		d := mk()
		s.slots = append(s.slots, &slot{host: host, name: dcfg.Name, mk: mk, d: d})
		s.pk.GoAfter(part, time.Duration(host)*2*time.Millisecond, func() {
			d.Connect(s.ctlAddr) //nolint:errcheck // expiry is the monitor's job
		})
	}
	// Connect window plus one full ping rotation, so selection has
	// measured responsiveness for every daemon.
	settle := sc.Settle
	if settle <= 0 {
		settle = 45 * time.Second
	}
	s.pk.RunFor(settle)
	if s.startErr != nil {
		return s.startErr
	}
	if got := ctl.Daemons(); got != pop {
		return fmt.Errorf("splay: only %d/%d daemons connected", got, pop)
	}
	return nil
}

// autoParts picks a simulated testbed's kernel partition count from its
// host population. It must stay a pure function of that population —
// never of Workers, GOMAXPROCS or the machine — because partitioning is
// schedule-visible (hosts land on partitions, cross-partition traffic
// rides lookahead barriers) while invariant 9 promises results depend
// only on the scenario itself. Thresholds follow the sharded
// experiments: a couple thousand hosts fit one event loop comfortably;
// past that, shards keep the per-loop event rate flat.
func autoParts(hosts int) int {
	switch {
	case hosts >= 32768:
		return 8
	case hosts >= 8192:
		return 4
	case hosts >= 2048:
		return 2
	default:
		return 1
	}
}

// startChurn hands the population to the churn executor: no controller —
// the trace is the deployment, starting Apps[0] on a slot's host at each
// join and killing it (and downing the host) at each leave. The slots it
// fills are the table the fault actuators read.
func (s *Session) startChurn(lg core.Logger) error {
	spec := s.sc.Apps[0]
	if spec.App == nil && spec.New == nil {
		// A by-name built-in's factory only decodes params, so bad ones
		// fail here rather than once per churned-in slot. User
		// factories keep their schedule: one call per join.
		if _, err := s.reg.New(spec.Name, spec.Params); err != nil {
			return err
		}
	}
	port := spec.Port
	if port == 0 {
		port = 9000
	}
	for i := 0; i < s.sc.Churn.Slots(); i++ {
		s.slots = append(s.slots, &slot{host: i, name: simnet.HostName(i), down: true})
	}
	// Rendez-vous selection draws from its own seeded stream, so neither
	// the runtime's random sequence nor an app that ignores job.nodes
	// sees a different schedule.
	jrng := rand.New(rand.NewSource(s.seed ^ 0x10b5))
	ctl := churn.NodeControlFuncs{
		Start: func(i int) {
			sl := s.slots[i]
			s.nw.Host(i).SetDown(false)
			sl.down = false
			app, err := s.reg.New(spec.Name, spec.Params)
			if err != nil {
				// The slot joined but runs nothing: Run reports it.
				if s.startErr == nil {
					s.startErr = fmt.Errorf("splay: churn slot %d: %w", i, err)
				}
				return
			}
			// job.nodes as the controller would ship it: one running
			// instance as the rendez-vous (all of them for FullList),
			// empty for the first join.
			var live []transport.Addr
			for _, o := range s.slots {
				if o.inst != nil {
					live = append(live, transport.Addr{Host: o.name, Port: port})
				}
			}
			if !spec.FullList && len(live) > 0 {
				live = []transport.Addr{live[jrng.Intn(len(live))]}
			}
			job := core.JobInfo{
				JobID:    s.sc.label(),
				Me:       transport.Addr{Host: sl.name, Port: port},
				Nodes:    live,
				Position: i + 1,
			}
			sl.inst = core.StartInstance(s.rt, s.nw.Node(i), job, lg, app)
		},
		Stop: func(i int) {
			sl := s.slots[i]
			if sl.inst != nil {
				sl.inst.Kill()
				sl.inst = nil
			}
			s.nw.Host(i).SetDown(true)
			sl.down = true
		},
	}
	s.ex = churn.NewExecutor(s.rt, s.sc.Churn.trace, ctl)
	s.k.Go(s.ex.Run)
	return nil
}

// needsController returns ErrNoController, wrapped with the offending
// entry, when a churn scenario's fault plan holds something only a daemon
// population can do: crashing and restarting daemons, or growing the job
// through the controller. Under churn the trace owns who is up.
func needsController(plan FaultPlan) error {
	daemonKind := func(k FaultKind) bool { return k == FaultCrash || k == FaultRestart }
	for _, ev := range plan.Events {
		if daemonKind(ev.Kind) {
			return fmt.Errorf("splay: fault event %s at +%s: %w", ev.Kind, ev.At, ErrNoController)
		}
	}
	for _, r := range plan.Rules {
		do := r.Do
		if do.Kind == ActKill || do.Kind == ActGrow || do.Kind == ActInject && do.Event != nil && daemonKind(do.Event.Kind) {
			return fmt.Errorf("splay: trigger rule %q (%s): %w", r.Name, do, ErrNoController)
		}
	}
	return nil
}

// startLive provisions controller and daemons in-process on loopback
// sockets: the quickstart path.
func (sc Scenario) startLive(ctx context.Context, tb *liveTestbed) (*Session, error) {
	if sc.Churn.Enabled() {
		return nil, errors.New("splay: churn is only supported on simulated testbeds")
	}
	seed := sc.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Session{sc: sc, seed: seed, live: true}
	rt := core.NewLiveRuntime(seed)
	s.rt = rt
	if sc.Collect.Metrics {
		every, key := sc.Collect.reportDefaults()
		// The aggregator gets its own loopback address: the controller
		// host is blacklisted for applications, the monitoring plane
		// must not be.
		aggNode := livenet.NewNode("127.0.2.1")
		agg, err := metrics.NewAggregator(aggNode, sc.Collect.MetricsPort, func(fn func()) { go fn() })
		if err != nil {
			return nil, fmt.Errorf("splay: aggregator: %w", err)
		}
		agg.Authorize(key)
		s.agg = agg
		s.collect = &core.Collect{Addr: agg.Addr(), Key: key, Every: every}
	}
	cfg := controller.DefaultConfig()
	cfg.Port = controller.PortEphemeral
	ctlReg, _ := s.newController(livenet.NewNode(tb.host), cfg)
	ctl := s.ctl
	if ctlReg != nil {
		s.Go(func() { s.report("ctl", ctlReg) })
	}
	if err := ctl.Start(); err != nil {
		s.Stop()
		return nil, err
	}
	ctlAddr := ctl.Addr()
	s.ctlAddr = ctlAddr
	if err := s.buildRegistry(); err != nil {
		s.Stop()
		return nil, err
	}

	for i := 0; i < tb.daemons; i++ {
		// Distinct loopback addresses per daemon (names must be unique
		// per controller session), each with its own probed port range
		// so several daemons and unrelated processes coexist on one
		// machine.
		name := fmt.Sprintf("%s.%d", tb.daemonIP, i+1)
		dcfg := daemon.DefaultConfig(name)
		dcfg.PortLow = tb.basePort + i*tb.portSpan
		dcfg.PortHigh = dcfg.PortLow + tb.portSpan - 1
		dcfg.ProbePorts = true
		if !sc.Faults.Empty() {
			dcfg.Reconnect = true
		}
		var lg core.Logger
		if sc.Collect.Logs != nil {
			lg = logging.New(&logging.WriterSink{W: sc.Collect.Logs}, name, dcfg.Key, nil)
		}
		mk := func() *daemon.Daemon {
			return daemon.New(rt, livenet.NewNode(name), s.reg, dcfg, lg)
		}
		d := mk()
		if err := d.Connect(ctlAddr); err != nil {
			s.Stop()
			return nil, err
		}
		s.slots = append(s.slots, &slot{host: -1, name: name, mk: mk, d: d})
	}
	// Readiness: poll the controller's registry instead of sleeping an
	// arbitrary delay and hoping the daemons made it.
	settle := sc.Settle
	if settle <= 0 {
		settle = 10 * time.Second
	}
	deadline := time.Now().Add(settle)
	for ctl.Daemons() < tb.daemons {
		if ctx != nil && ctx.Err() != nil {
			s.Stop()
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			got := ctl.Daemons()
			s.Stop()
			return nil, fmt.Errorf("splay: only %d/%d daemons connected after %s", got, tb.daemons, settle)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s, nil
}

// newController builds the scenario's controller on node, cfg giving the
// testbed's default port. When collecting, controller instruments plus
// fleet-wide daemon accounting share one registry (returned with the
// daemons' instrument set), reported over the wire as node "ctl" like
// every application stream.
func (s *Session) newController(node transport.Node, cfg controller.Config) (*metrics.Registry, daemon.Instruments) {
	if s.sc.ControllerPort != 0 {
		cfg.Port = s.sc.ControllerPort
	}
	if s.sc.RegisterTimeout > 0 {
		cfg.RegisterTimeout = s.sc.RegisterTimeout
	}
	s.ctl, s.node = controller.New(s.rt, node, cfg), node
	if s.collect == nil {
		return nil, daemon.Instruments{}
	}
	ctlReg := metrics.NewRegistry()
	s.ctl.SetInstruments(controller.NewInstruments(ctlReg))
	dmnIns := daemon.NewInstruments(ctlReg)
	// One instrument set is shared by the whole fleet: the counters sum
	// correctly but the per-daemon jobs gauge would just be clobbered by
	// whichever daemon Set it last — disable it.
	dmnIns.Jobs = nil
	return ctlReg, dmnIns
}

// reportDefaults resolves the collection plane's period and key.
func (c Collect) reportDefaults() (every time.Duration, key string) {
	every, key = c.ReportEvery, c.Key
	if every <= 0 {
		every = 5 * time.Second
	}
	if key == "" {
		key = "splay"
	}
	return every, key
}

// simLogger builds the daemons'/instances' logger from Collect.Logs,
// stamped with virtual time. Nil writer, nil logger.
func (sc Scenario) simLogger(rt core.Runtime) core.Logger {
	if sc.Collect.Logs == nil {
		return nil
	}
	return logging.New(&logging.WriterSink{W: sc.Collect.Logs}, sc.label(), sc.label(), rt.Now)
}

// label is the scenario's name in log lines and churned-in job IDs.
func (sc Scenario) label() string {
	if sc.Name == "" {
		return "scenario"
	}
	return sc.Name
}

// report is the session's one reporter loop, run as a driver task: it
// streams reg from the controller's host to the collection plane as the
// named node, one flush per period until the session stops. Live streams
// redial after a failed flush; a simulated one fails only with the
// session.
func (s *Session) report(node string, reg *metrics.Registry) {
	rep, err := metrics.DialReporter(s.node, s.collect.Addr, reg,
		metrics.ReporterConfig{Key: s.collect.Key, Node: node})
	if err != nil {
		if !s.live {
			s.startErr = err
		}
		return
	}
	for {
		s.rt.Sleep(s.collect.Every)
		if s.stopped.Load() {
			return
		}
		if rep.Flush() != nil && s.live {
			rep.Reconnect() //nolint:errcheck // monitoring is best effort, retried next period
		}
	}
}

// buildRegistry assembles the deployable application registry: built-ins
// when a spec names one, SDK apps otherwise, and every factory decorated
// with the one grant its instances' contexts start under — the spec's Env
// restrictions plus the session's collect target and RPC fault filter. A
// duplicate name surfaces as an error.
func (s *Session) buildRegistry() error {
	session := core.Grant{Collect: s.collect}
	if !s.sc.Faults.Empty() {
		// The RPC fault filter exists only for non-empty plans: an unarmed
		// filter would still sit on every call path, and schedule
		// neutrality wants the default client untouched.
		s.rpcRules = faults.NewRPCRules(s.seed)
		session.RPCFault = s.rpcRules.Check
	}
	s.reg = core.NewRegistry()
	for _, spec := range s.sc.Apps {
		if spec.Name == "" {
			return errors.New("splay: app spec needs a name")
		}
		var factory core.Factory
		if spec.App != nil || spec.New != nil {
			factory = makeFactory(spec)
		} else if a, ok := apps.Lookup(spec.Name); ok {
			// By-name built-ins are declared once, in internal/apps.
			factory = a.Factory
		} else {
			return fmt.Errorf("splay: app %q is not built in and has no implementation", spec.Name)
		}
		grant := spec.Env.grant()
		grant.Collect, grant.RPCFault = session.Collect, session.RPCFault
		if err := s.reg.Register(spec.Name, factory.Granted(grant)); err != nil {
			return fmt.Errorf("splay: %w", err)
		}
	}
	return nil
}

// makeFactory wraps an SDK app (or factory) as an engine factory that
// hands instances a capability-scoped Env.
func makeFactory(spec AppSpec) core.Factory {
	return func(params json.RawMessage) (core.App, error) {
		app := spec.App
		if spec.New != nil {
			a, err := spec.New(params)
			if err != nil {
				return nil, err
			}
			app = a
		}
		if app == nil {
			return nil, fmt.Errorf("splay: app %q has no implementation", spec.Name)
		}
		return core.AppFunc(func(ctx *core.AppContext) error {
			return app.Run(spec.Env.view(ctx))
		}), nil
	}
}

// Deploy submits one application for deployment and returns immediately;
// Wait drives the run until the job is placed. The submission runs as a
// kernel task in simulation, a goroutine live — exactly the shape every
// experiment hand-wired before this API existed. On a churn session (no
// controller: the trace deploys) Wait returns ErrNoController.
func (s *Session) Deploy(spec AppSpec) *Deployment {
	dep := &Deployment{sess: s, done: make(chan struct{})}
	if s.ctl == nil {
		dep.err = fmt.Errorf("splay: deploy %q: %w", spec.Name, ErrNoController)
		close(dep.done)
		return dep
	}
	js := controller.JobSpec{
		App: spec.Name, Params: spec.Params, Nodes: spec.Nodes,
		Superset: spec.Superset, FullList: spec.FullList,
	}
	framesBefore := s.ctl.FramesSent()
	submit := func() {
		dep.submittedAt = s.rt.Now()
		job, err := s.ctl.Submit(js)
		// Snapshot the frame counter at completion so steady-state ping
		// traffic after the deployment does not pollute the load figure.
		dep.frames = s.ctl.FramesSent() - framesBefore
		dep.job, dep.err = job, err
		close(dep.done)
	}
	s.rt.Go(submit)
	return dep
}

// Deployment is one in-flight (or completed) job submission.
type Deployment struct {
	sess        *Session
	done        chan struct{}
	job         *JobStatus
	err         error
	submittedAt time.Time
	frames      int64
}

func (d *Deployment) finished() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// SubmittedAt is the (virtual or real) time the submission entered the
// controller — the zero of per-instance deployment delay. It is set
// before any instance starts, so application code may read it.
func (d *Deployment) SubmittedAt() time.Time { return d.submittedAt }

// Frames is the controller command-frame load this deployment cost
// (valid after Wait).
func (d *Deployment) Frames() int64 { return d.frames }

// Wait drives the run until the submission completes: up to 30 windows
// of 10 simulated seconds, or five real minutes live. It returns the
// job's status; callers decide whether non-running states are fatal.
func (d *Deployment) Wait() (*JobStatus, error) {
	if d.sess.k != nil {
		for i := 0; i < 30 && !d.finished(); i++ {
			d.sess.pk.RunFor(10 * time.Second)
		}
		if !d.finished() {
			return nil, errors.New("splay: deployment did not finish within the run window")
		}
	} else {
		select {
		case <-d.done:
		case <-time.After(5 * time.Minute):
			return nil, errors.New("splay: deployment timed out")
		}
	}
	return d.job, d.err
}

// RunFor advances the scenario: d of virtual time in simulation, a real
// sleep live.
func (s *Session) RunFor(d time.Duration) {
	if s.k != nil {
		s.pk.RunFor(d)
	} else {
		time.Sleep(d)
	}
}

// Go starts fn as a driver task (kernel task in simulation, goroutine
// live). Driver tasks may Sleep and call into deployed instances.
func (s *Session) Go(fn func()) { s.rt.Go(fn) }

// GoAfter schedules fn as a driver task after d.
func (s *Session) GoAfter(d time.Duration, fn func()) {
	if s.k != nil {
		s.k.GoAfter(d, fn)
	} else {
		time.AfterFunc(d, func() { fn() })
	}
}

// Sleep parks the calling driver task.
func (s *Session) Sleep(d time.Duration) { s.rt.Sleep(d) }

// Now returns the scenario's current (virtual or real) time.
func (s *Session) Now() time.Time { return s.rt.Now() }

// Seed is the resolved random seed.
func (s *Session) Seed() int64 { return s.seed }

// Partitions reports how many kernel partitions the simulated testbed
// provisioned (see autoParts); 0 on live testbeds. The count is part of
// the scenario's schedule; Workers never is.
func (s *Session) Partitions() int {
	if s.pk == nil {
		return 0
	}
	return s.pk.Parts()
}

// KernelStats is what the simulated kernel counted about its own runs:
// lookahead rounds, cross-partition posts merged at barriers, how often
// the coordinator and the helper threads slept at a barrier instead of
// spinning through it, events per partition, and live cooperative tasks
// (parked ones included: a task held per idle connection shows here).
// Plain counters that observe the run without entering it (invariant 6) —
// the park counts depend on the machine, nothing in a Result does.
type KernelStats = sim.ParStats

// KernelStats returns the simulated kernel's self-counters so far; the
// zero value on live testbeds.
func (s *Session) KernelStats() KernelStats {
	if s.pk == nil {
		return KernelStats{}
	}
	return s.pk.Stats()
}

// Daemons reports the connected daemon population (under churn, where
// there are none, the currently alive slot count).
func (s *Session) Daemons() int {
	if s.ctl != nil {
		return s.ctl.Daemons()
	}
	if s.ex != nil {
		return s.ex.Alive()
	}
	return 0
}

// Telemetry returns the aggregated metric view, nil when the scenario
// collects none.
func (s *Session) Telemetry() *Telemetry {
	if s.agg == nil {
		return nil
	}
	return &Telemetry{agg: s.agg}
}

// NetBytes is the total stream payload the simulated network carried —
// the denominator of the monitoring byte share (0 live: the real network
// is not ours to meter).
func (s *Session) NetBytes() uint64 {
	return s.netIns.StreamBytes.Total()
}

// StopJob terminates a deployed job everywhere. In simulation the stop
// protocol runs as a kernel task and the kernel is driven until the
// daemons acknowledged. ErrNoController on a churn session.
func (s *Session) StopJob(id string) error {
	if s.ctl == nil {
		return fmt.Errorf("splay: stop job %s: %w", id, ErrNoController)
	}
	if s.k == nil {
		return s.ctl.StopJob(id)
	}
	var err error
	done := false
	s.k.Go(func() {
		err = s.ctl.StopJob(id)
		done = true
	})
	for i := 0; i < 30 && !done; i++ {
		s.pk.RunFor(10 * time.Second)
	}
	if !done {
		return errors.New("splay: job stop did not finish within the run window")
	}
	return err
}

// Stop tears the session down: churn replay, controller, daemons,
// aggregator, and any churn-started instances. Idempotent.
func (s *Session) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if s.ex != nil {
		s.ex.Stop()
	}
	if s.eng != nil {
		s.eng.Stop()
	}
	if s.host != nil && s.live {
		// Kill hosted jobs while the controller still answers; simulated
		// sessions halt with their kernel.
		s.host.svc.Close()
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
	for _, sl := range s.slots {
		if sl.inst != nil {
			sl.inst.Kill() // churned-in instances run their kill handlers
		}
		// Simulated daemons need no teardown (the kernel stopped with
		// the session); live ones hold real sockets.
		if s.live && sl.d != nil {
			sl.d.Close()
		}
	}
	if s.agg != nil {
		s.agg.Close()
	}
}
