package splay

import (
	"bytes"
	"cmp"
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
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
	"github.com/splaykit/splay/internal/wire"
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
	// Logs receives daemon, instance and fault-plane log lines (nil
	// discards), each stamped with its (virtual or real) time. On a sharded
	// simulated testbed the lines arrive at each lookahead barrier, one
	// partition's after another's.
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
	// live; see Env.Rand).
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
	// plan injects nothing and leaves every schedule untouched. Start
	// refuses a plan (or an assertion) that cannot run with a typed
	// *FaultPlanError before provisioning anything. Under
	// Churn, Crash/Restart events and ActKill/ActGrow actions fail Start
	// with ErrNoController: the trace owns who is up.
	Faults FaultPlan
	// Assert are metric predicates the run must satisfy; violations
	// surface from Run as a typed *AssertionError alongside the still
	// valid Result, under Churn as without. Trigger rules and assertions
	// read the aggregated telemetry and therefore need Collect.Metrics.
	Assert []Assertion
	// Duration is Run's workload window after deployment (default 30s).
	Duration time.Duration
	// RegisterTimeout bounds deployment probing (0 = the controller
	// default, 30s; heavy-tailed testbeds want 60s).
	RegisterTimeout time.Duration
	// Workers sets how many OS threads may drive a simulated testbed's
	// kernel. It is a performance knob only: a scenario's result is a
	// pure function of Seed and the scenario itself, never of Workers or
	// GOMAXPROCS (invariant 9, DESIGN.md). Scenarios at large
	// populations provision a sharded kernel — metrics, faults,
	// assertions and logs included; the partition count comes from
	// autoParts, a pure function of the host population, so the schedule
	// can never depend on Workers — and 0 means min(partitions,
	// GOMAXPROCS): a thread per partition as far as the machine has
	// processors for them, every partition inline on the caller's
	// goroutine when it has one. Small populations and churned scenarios
	// run a single partition, where Workers changes nothing.
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

	k   *sim.Kernel
	pk  *sim.ParKernel // drives k (partition 0) plus any further partitions (simulated testbeds)
	nw  *simnet.Network
	bed *simbed.Bed

	rt   core.Runtime
	node transport.Node // the controller's host (reporter dialing)
	// home is the monitoring host's kernel partition (0 without one, and
	// live), homeRT its runtime: the aggregator and the fault engine that
	// reads it run there.
	home    int
	homeRT  core.Runtime
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
	rpcRules []faults.RPCRules // one per kernel partition (see buildRegistry)
	frng     *rand.Rand        // victim selection: the session's "faults" stream
	eng      *faults.Engine
	act      *actuators

	// logs are the session's loggers over Collect.Logs, one per kernel
	// partition (one live); nil when the scenario collects no logs.
	logs  []core.Logger
	sink  *logging.WriterSink  // live: every daemon's logger and the session's write through it
	fleet []daemon.Instruments // the daemons' instruments per partition (see fleetCounters)

	startErr error
	stopped  atomic.Bool
}

// Start provisions the scenario and returns a Session. The caller owns
// it and must Stop it (Run does both).
func (sc Scenario) Start(ctx context.Context) (*Session, error) {
	if sc.Testbed == nil {
		return nil, errors.New("splay: scenario needs a testbed")
	}
	// A plan that cannot run fails here, not as a log line mid-run.
	if err := sc.Faults.Validate(); err != nil {
		return nil, faults.Within("faults", err)
	}
	for i, a := range sc.Assert {
		if err := a.Validate(); err != nil {
			return nil, faults.Within(fmt.Sprintf("assert[%d]", i), err)
		}
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
// filters, registry and logger are built the same way for every scenario;
// only who provisions the population forks: the controller and its
// daemons, or the churn executor. The sequence of kernel events is pinned
// by the experiment goldens (ctlplane, obsplane): aggregator first (when
// collecting, on the monitoring host's partition — the session's home),
// then the population.
func (sc Scenario) startSim(tb *simTestbed) (*Session, error) {
	s := &Session{sc: sc, seed: cmp.Or(sc.Seed, wire.DefaultSimSeed)}
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
	model, proc := tb.build(total, s.seed)

	// Partition count: a pure function of the host population (never of
	// Workers — invariant 9). Metrics, faults and assertions are partition-
	// aware: the aggregator and the fault engine live on the monitoring
	// host's partition, actuations are staged onto the partitions that
	// own what they change, and fault filters, fleet counters and loggers
	// are kept per partition. Churn keeps a single partition: the churn
	// executor starts and kills instances on every host from one task. So
	// does a model that cannot bound the delay between partitions (a
	// zero-RTT uniform testbed). The model places the hosts once, and the
	// bed takes that placement and its lookahead as they are.
	parts, place, look := 1, make([]int, total), time.Duration(0)
	if p := autoParts(total); p > 1 && !churned {
		if pl, lk, err := simnet.Placement(model, total, p); err == nil {
			parts, place, look = p, pl, lk
		}
	}
	workers := sc.Workers
	if workers == 0 {
		// Auto: a thread per partition, but never more threads than
		// processors — they would only take turns at the window barrier.
		workers = min(parts, runtime.GOMAXPROCS(0))
	}
	// The session itself lives where host 0 does (the controller, or churn
	// slot 0): partition 0.
	bed, err := simbed.New(parts, workers, model, place, look, s.seed, proc)
	if err != nil {
		return nil, err
	}
	nw := bed.Net
	s.pk, s.k, s.nw, s.bed, s.rt = bed.Par, bed.K, nw, bed, bed.Runtime(0)
	s.homeRT = s.rt
	s.buildSimLogs()

	if collecting {
		every, key := sc.Collect.reportDefaults()
		s.home, s.homeRT = nw.Host(monHost).Part(), bed.Runtime(monHost)
		mrt := s.homeRT
		mrt.Go(func() {
			if s.agg, err = metrics.NewAggregator(nw.Node(monHost), simMetricsPort, mrt.Go); err == nil {
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
	if churned {
		err = s.startChurn()
	} else {
		err = s.startDaemons(first, pop)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// startDaemons provisions the controller on host 0 and pop daemons from
// host first on, staggered 2ms apart by host index, then runs the settle
// window.
func (s *Session) startDaemons(first, pop int) error {
	nw := s.nw
	ctlReg := s.newController(nw.Node(0), controller.DefaultConfig())
	ctl := s.ctl
	s.k.Go(func() {
		if s.startErr = ctl.Start(); s.startErr == nil && ctlReg != nil {
			s.report(s.rt, s.node, "ctl", ctlReg)
		}
	})
	s.ctlAddr = ctl.Addr()
	s.fleetCounters(ctlReg, first, pop)
	for host := first; host < first+pop; host++ {
		sl := &slot{host: host, name: simnet.HostName(host)}
		s.slots = append(s.slots, sl)
		sl.d = s.newDaemon(len(s.slots) - 1)
		s.pk.GoAfter(nw.Host(host).Part(), time.Duration(host)*2*time.Millisecond, func() {
			sl.d.Connect(s.ctlAddr) //nolint:errcheck // expiry is the monitor's job
		})
	}
	s.pk.RunFor(simSettle)
	if s.startErr != nil {
		return s.startErr
	}
	if got := ctl.Daemons(); got != pop {
		return fmt.Errorf("splay: only %d/%d daemons connected", got, pop)
	}
	return nil
}

// A testbed's fixed provisioning parameters.
const (
	// simSettle is the simulated daemon connect window before deployments
	// begin: the staggered connects plus one full ping rotation, so
	// selection has measured responsiveness for every daemon.
	simSettle = 45 * time.Second
	// liveSettle is the live readiness deadline, polled on the
	// controller's registry.
	liveSettle = 10 * time.Second
	// simMetricsPort is the aggregator's port on the simulated monitoring
	// host; live aggregators bind an ephemeral port.
	simMetricsPort = 7000
	// churnPort is every instance's port under Scenario.Churn, where the
	// trace starts the application itself and no daemon grants one.
	churnPort = 9000
)

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
func (s *Session) startChurn() error {
	spec := s.sc.Apps[0]
	if spec.App == nil && spec.New == nil {
		// A by-name built-in's factory only decodes params, so bad ones
		// fail here rather than once per churned-in slot. User
		// factories keep their schedule: one call per join.
		if _, err := s.reg.New(spec.Name, spec.Params); err != nil {
			return err
		}
	}
	for i := 0; i < s.sc.Churn.Slots(); i++ {
		s.slots = append(s.slots, &slot{host: i, name: simnet.HostName(i), down: true})
	}
	jrng := stream.Rand(s.seed, "churn", 0) // rendez-vous selection
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
			// empty for the first join. The rendez-vous is the k-th
			// running slot of a count, not an entry of a list built to
			// be thrown away: the same draw picks the same instance.
			var nodes []transport.Addr
			running := 0
			for _, o := range s.slots {
				if o.inst != nil {
					running++
					if spec.FullList {
						nodes = append(nodes, transport.Addr{Host: o.name, Port: churnPort})
					}
				}
			}
			if !spec.FullList && running > 0 {
				k := jrng.Intn(running)
				for _, o := range s.slots {
					if o.inst != nil {
						if k == 0 {
							nodes = []transport.Addr{{Host: o.name, Port: churnPort}}
							break
						}
						k--
					}
				}
			}
			job := core.JobInfo{
				JobID:    s.sc.label(),
				App:      spec.Name,
				Seed:     s.seed,
				Me:       transport.Addr{Host: sl.name, Port: churnPort},
				Nodes:    nodes,
				Position: i + 1,
			}
			sl.inst = core.StartInstance(s.rt, s.nw.Node(i), job, s.logger(0), app)
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
	s.rt, s.homeRT = rt, rt
	// One sink serializes every daemon's lines and the fault plane's onto
	// the writer; each daemon's logger names it in the node column.
	if sc.Collect.Logs != nil {
		s.sink = &logging.WriterSink{W: sc.Collect.Logs}
		s.logs = []core.Logger{logging.New(s.sink, sc.label(), "", nil)}
	}
	if sc.Collect.Metrics {
		every, key := sc.Collect.reportDefaults()
		// The aggregator gets its own loopback address, on an ephemeral
		// port: the controller host is blacklisted for applications, the
		// monitoring plane must not be.
		aggNode := livenet.NewNode("127.0.2.1")
		agg, err := metrics.NewAggregator(aggNode, 0, func(fn func()) { go fn() })
		if err != nil {
			return nil, fmt.Errorf("splay: aggregator: %w", err)
		}
		agg.Authorize(key)
		s.agg = agg
		s.collect = &core.Collect{Addr: agg.Addr(), Key: key, Every: every}
	}
	cfg := controller.DefaultConfig()
	cfg.Port = controller.PortEphemeral
	ctlReg := s.newController(livenet.NewNode(tb.host), cfg)
	ctl := s.ctl
	if ctlReg != nil {
		s.Go(func() { s.report(s.rt, s.node, "ctl", ctlReg) })
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
		// Distinct loopback addresses per daemon: names must be unique per
		// controller session.
		sl := &slot{host: -1, name: fmt.Sprintf("%s.%d", tb.daemonIP, i+1)}
		s.slots = append(s.slots, sl)
		sl.d = s.newDaemon(i)
		if err := sl.d.Connect(ctlAddr); err != nil {
			s.Stop()
			return nil, err
		}
	}
	// Readiness: poll the controller's registry instead of sleeping an
	// arbitrary delay and hoping the daemons made it.
	deadline := time.Now().Add(liveSettle)
	for ctl.Daemons() < tb.daemons {
		if ctx != nil && ctx.Err() != nil {
			s.Stop()
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			got := ctl.Daemons()
			s.Stop()
			return nil, fmt.Errorf("splay: only %d/%d daemons connected after %s", got, tb.daemons, liveSettle)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s, nil
}

// newController builds the scenario's controller on node, cfg giving the
// testbed's port: 5555 simulated, ephemeral live. When collecting, its
// instruments live in the registry it returns, reported over the wire as
// node "ctl" like every application stream.
func (s *Session) newController(node transport.Node, cfg controller.Config) *metrics.Registry {
	if s.sc.RegisterTimeout > 0 {
		cfg.RegisterTimeout = s.sc.RegisterTimeout
	}
	s.ctl, s.node = controller.New(s.rt, node, cfg), node
	if s.collect == nil {
		return nil
	}
	ctlReg := metrics.NewRegistry()
	s.ctl.SetInstruments(controller.NewInstruments(ctlReg))
	return ctlReg
}

// fleetCounters builds the daemons' instrument sets into s.fleet, one per
// kernel partition (none when not collecting): partition 0's in the
// controller's registry ctlReg, every other partition's in a registry of
// its own that the partition reports as node "ctl" too, from its first
// daemon host. No counter is then written by one partition and read by
// another's reporter inside a window; the aggregator sums the streams.
// Within a partition one set serves every daemon: the counters sum
// correctly, but a per-daemon jobs gauge would just be clobbered by
// whichever daemon Set it last, so it is disabled.
func (s *Session) fleetCounters(ctlReg *metrics.Registry, first, pop int) {
	if ctlReg == nil {
		return
	}
	s.fleet = make([]daemon.Instruments, s.pk.Parts())
	newSet := func(p int, reg *metrics.Registry) {
		s.fleet[p] = daemon.NewInstruments(reg)
		s.fleet[p].Jobs = nil
	}
	newSet(0, ctlReg)
	for host := first; host < first+pop; host++ {
		p := s.nw.Host(host).Part()
		if s.fleet[p].Commands != nil {
			continue
		}
		reg := metrics.NewRegistry()
		newSet(p, reg)
		rt, node := s.bed.Runtime(host), s.nw.Node(host)
		rt.Go(func() { s.report(rt, node, "ctl", reg) })
	}
}

// newDaemon builds slot i's daemon, named after the slot, at provisioning
// and at every fault-plan restart. Simulated, the rest follows from the
// slot's host: its partition's runtime, logger and fleet counters. Live,
// the slot index gives it a port range of its own, so several daemons and
// unrelated processes coexist on one machine.
func (s *Session) newDaemon(i int) *daemon.Daemon {
	sl := s.slots[i]
	cfg := daemon.DefaultConfig(sl.name)
	if s.nw == nil {
		tb := s.sc.Testbed.(*liveTestbed)
		cfg.PortLow = tb.basePort + i*tb.portSpan
		cfg.PortHigh = cfg.PortLow + tb.portSpan - 1
		var lg core.Logger
		if s.sink != nil {
			lg = logging.New(s.sink, sl.name, "", nil)
		}
		return daemon.New(s.rt, livenet.NewNode(sl.name), s.reg, cfg, lg)
	}
	part := s.nw.Host(sl.host).Part()
	d := daemon.New(s.bed.Runtime(sl.host), s.nw.Node(sl.host), s.reg, cfg, s.logger(part))
	if s.fleet != nil {
		d.SetInstruments(&s.fleet[part])
	}
	return d
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

// buildSimLogs gives a simulated session its loggers over Collect.Logs
// (none without a writer): one per kernel partition, stamped with that
// partition's clock. On one partition the logger writes straight through
// to the writer. On several, each partition's logger formats into a buffer
// only that partition touches, and a barrier hook copies the buffers to
// the writer in partition order. Hooks run after every round, the last
// included, so a run returns with every line written; they post no kernel
// event (invariant 6), and the bytes depend on the partition count, never
// on Workers (invariant 9).
func (s *Session) buildSimLogs() {
	w := s.sc.Collect.Logs
	if w == nil {
		return
	}
	parts := s.pk.Parts()
	s.logs = make([]core.Logger, parts)
	if parts == 1 {
		s.logs[0] = logging.New(&logging.WriterSink{W: w}, s.sc.label(), "", s.k.Now)
		return
	}
	bufs := make([]bytes.Buffer, parts)
	for p := range bufs {
		s.logs[p] = logging.New(&logging.WriterSink{W: &bufs[p]}, s.sc.label(), "", s.pk.Sub(p).Now)
	}
	s.pk.AddBarrierHook(func() {
		for p := range bufs {
			if bufs[p].Len() > 0 {
				w.Write(bufs[p].Bytes()) //nolint:errcheck // logging is best effort
				bufs[p].Reset()
			}
		}
	})
}

// logger returns kernel partition p's logger, nil when the scenario
// collects no logs.
func (s *Session) logger(p int) core.Logger {
	if s.logs == nil {
		return nil
	}
	return s.logs[p]
}

// logf logs one line through kernel partition p's logger.
func (s *Session) logf(p int, format string, args ...any) {
	if lg := s.logger(p); lg != nil {
		lg.Printf(format, args...)
	}
}

// label is the scenario's name in log lines and churned-in job IDs.
func (sc Scenario) label() string {
	if sc.Name == "" {
		return "scenario"
	}
	return sc.Name
}

// report is the session's reporter loop, run as a task of rt: it streams
// reg from the host from to the collection plane as the named node, one
// flush per period on rt's clock until the session stops. Live streams
// redial; a simulated one fails only with the session, and a failed dial
// is the session's start error.
func (s *Session) report(rt core.Runtime, from transport.Node, node string, reg *metrics.Registry) {
	err := metrics.Stream(from, s.collect.Addr, reg, metrics.ReporterConfig{Key: s.collect.Key, Node: node},
		s.collect.Every, func(d time.Duration, _ error) bool {
			rt.Sleep(d)
			return !s.stopped.Load()
		}, s.live)
	if err != nil {
		s.stage(s.partOf(from.Host()), 0, func() { s.startErr = err })
	}
}

// buildRegistry assembles the deployable application registry: built-ins
// when a spec names one, SDK apps otherwise, and every factory decorated
// with the grant its instances' contexts start under — the spec's Env
// restrictions plus the session's collect target and the RPC fault filter
// of the partition the instance runs on. A duplicate name surfaces as an
// error.
func (s *Session) buildRegistry() error {
	if !s.sc.Faults.Empty() {
		// The RPC fault filters exist only for non-empty plans: an unarmed
		// filter would still sit on every call path, and schedule
		// neutrality wants the default client untouched. One rule table
		// per kernel partition, as Stage delivers rule changes; drop
		// verdicts draw from the calling instance's "rpcfault" stream, so
		// they never move a draw of the application.
		s.rpcRules = make([]faults.RPCRules, max(1, s.Partitions()))
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
		grant.Collect = s.collect
		granted := factory.GrantedBy(func(ctx *core.AppContext) core.Grant {
			g := grant
			if s.rpcRules != nil {
				rules := &s.rpcRules[s.partOf(ctx.Node().Host())]
				src := new(stream.Source64).Init(ctx.Job.Seed, "rpcfault", uint64(ctx.Job.Position))
				g.RPCFault = func(to transport.Addr, method string) (bool, time.Duration) {
					return rules.Check(src, to, method)
				}
			}
			return g
		})
		if err := s.reg.Register(spec.Name, granted); err != nil {
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
	js := s.jobSpec(spec, spec.Nodes)
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

// jobSpec is the job of nodes instances of spec, under the session's seed.
func (s *Session) jobSpec(spec AppSpec, nodes int) controller.JobSpec {
	return controller.JobSpec{App: spec.Name, Params: spec.Params, Nodes: nodes,
		Superset: spec.Superset, FullList: spec.FullList, Seed: s.seed}
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
		if !d.sess.driveUntil(d.finished) {
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

// driveUntil runs the simulated kernel in windows of 10 virtual seconds,
// at most 30 of them, until done reports true, and reports whether it did.
func (s *Session) driveUntil(done func() bool) bool {
	for i := 0; i < 30 && !done(); i++ {
		s.pk.RunFor(10 * time.Second)
	}
	return done()
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
// spinning through it, events per partition, live cooperative tasks
// (parked ones included: a task held per idle connection shows here), the
// most task coroutines alive at once (summed over partitions), and
// what the kernel holds for reuse: idle coroutines, free events and
// waiters, and queue slots, each handed back once a whole release epoch
// left it unused. Plain counters that observe the run without entering it
// (invariant 6) — the park counts depend on the machine, nothing in a
// Result does.
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
	if s.nw == nil {
		return 0
	}
	return s.nw.Stats().StreamBytes
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
	if !s.driveUntil(func() bool { return done }) {
		return errors.New("splay: job stop did not finish within the run window")
	}
	return err
}

// Stop tears the session down: churn replay, any churn-started instances,
// daemons, controller and aggregator. Idempotent.
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
	for _, sl := range s.slots {
		if sl.inst != nil {
			sl.inst.Kill() // churned-in instances run their kill handlers
		}
		// Simulated daemons need no teardown (the kernel stopped with
		// the session); live ones hold real sockets. They close before
		// the controller does, or each would redial the lost session.
		if s.live && sl.d != nil {
			sl.d.Close()
		}
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
	if s.agg != nil {
		s.agg.Close()
	}
}
