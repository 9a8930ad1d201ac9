// Command splayd runs a SPLAY daemon on a testbed host: it connects to
// the controller, accepts jobs and hosts sandboxed application instances
// (§3.1). Applications come from the built-in registry (chord, pastry,
// cyclon, epidemic, bittorrent).
//
// Usage:
//
//	splayd -controller 127.0.0.1:5555 -name host-a [-tls]
//	splayd -host [-port 5555] [-http 8080] [-capacity n]
//	       -tenant alice:ka:100 -tenant bob:kb
//
// Host mode is the hosting plane (the paper's §4 splayweb vision): one
// resident process owns the controller that plain splayd daemons
// connect to, and serves the multi-tenant HTTP/JSON job API on -http.
// Tenants (repeatable -tenant name:key[:maxnodes]) authenticate with
// their key, submit serialized Scenarios (splayctl submit or
// splay.Connect), and the platform queues, fair-share places, watches
// and kills their jobs on the shared fleet.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/config"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/hosting"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/logging"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/transport"
)

// tenantFlags collects repeatable -tenant name:key[:maxnodes] values.
type tenantFlags []hosting.Tenant

func (t *tenantFlags) String() string {
	names := make([]string, len(*t))
	for i, ten := range *t {
		names[i] = ten.Name
	}
	return strings.Join(names, ",")
}

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want name:key[:maxnodes], got %q", v)
	}
	ten := hosting.Tenant{Name: parts[0], Key: parts[1]}
	if len(parts) >= 3 && parts[2] != "" {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			return fmt.Errorf("maxnodes in %q must be a non-negative integer", v)
		}
		ten.Quota.MaxNodes = n
	}
	*t = append(*t, ten)
	return nil
}

func main() {
	ctlAddr := flag.String("controller", "127.0.0.1:5555", "controller address")
	name := flag.String("name", "127.0.0.1", "daemon name (advertised host)")
	useTLS := flag.Bool("tls", false, "secure the controller link with TLS")
	maxSockets := flag.Int("max-sockets", 0, "per-app socket limit (0 = unlimited)")
	maxTx := flag.Int64("max-tx", 0, "per-app lifetime egress bytes (0 = unlimited)")
	metricsAddr := flag.String("metrics", "", "aggregator address for metric reports (empty disables)")
	metricsKey := flag.String("metrics-key", "splay", "key presented to the aggregator")
	reconnect := flag.Bool("reconnect", false,
		"redial the controller with jittered exponential backoff when the session drops")
	hostMode := flag.Bool("host", false,
		"run the resident hosting platform (controller + multi-tenant job API) instead of a daemon")
	hostPort := flag.Int("port", 5555, "daemon connection port (host mode)")
	httpPort := flag.Int("http", 8080, "hosting API port (host mode)")
	capacity := flag.Int("capacity", 0,
		"instance budget for hosted jobs (host mode; 0 sizes it to the live daemon count)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "admit a tenant as name:key[:maxnodes] (host mode; repeatable)")
	flag.Parse()

	if *hostMode {
		if err := hostMain(*name, *hostPort, *httpPort, *useTLS, *capacity, tenants); err != nil {
			log.Printf("splayd -host: %v", err)
			os.Exit(1)
		}
		return
	}

	addr, err := transport.ParseAddr(*ctlAddr)
	if err != nil {
		log.Fatalf("splayd: %v", err)
	}
	// The collect target: the daemon's own instruments and every built-in
	// instance whose job sets report: true stream to this aggregator.
	var maddr transport.Addr
	if *metricsAddr != "" {
		if maddr, err = transport.ParseAddr(*metricsAddr); err != nil {
			log.Fatalf("splayd: metrics: %v", err)
		}
	}
	rt := core.NewLiveRuntime(time.Now().UnixNano())
	node := livenet.NewNode(*name)
	if *useTLS {
		cfg, err := livenet.SelfSignedTLS(*name)
		if err != nil {
			log.Fatalf("splayd: tls: %v", err)
		}
		node.TLS = cfg
	}
	cfg := daemon.DefaultConfig(*name)
	cfg.Net = sandbox.NetLimits{MaxSockets: *maxSockets, MaxTxBytes: *maxTx}
	cfg.Reconnect = *reconnect
	lg := logging.New(&logging.WriterSink{W: os.Stdout}, *name, cfg.Key, nil)
	d := daemon.New(rt, node, builtinRegistry(maddr, *metricsKey), cfg, lg)

	// The observability plane: the daemon's own instruments stream to
	// the controller-side aggregator as batched delta reports.
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		d.SetInstruments(daemon.NewInstruments(reg))
		go func() {
			var rep *metrics.Reporter
			for {
				var err error
				rep, err = metrics.DialReporter(node, maddr, reg,
					metrics.ReporterConfig{Key: *metricsKey, Node: *name})
				if err == nil {
					break
				}
				log.Printf("splayd: metrics: %v (retrying in 30s)", err)
				time.Sleep(30 * time.Second)
			}
			for {
				time.Sleep(5 * time.Second)
				if err := rep.Flush(); err != nil {
					// Reconnect keeps the delta state: the stream resumes
					// with increments, never re-shipping lifetime totals.
					log.Printf("splayd: metrics: %v (redialing)", err)
					if err := rep.Reconnect(); err != nil {
						log.Printf("splayd: metrics: %v (retrying in 30s)", err)
						time.Sleep(30 * time.Second)
					}
				}
			}
		}()
	}

	for {
		if err := d.Connect(addr); err != nil {
			log.Printf("splayd: %v (retrying in 5s)", err)
			time.Sleep(5 * time.Second)
			continue
		}
		log.Printf("splayd %s: connected to %s", *name, addr)
		if *reconnect {
			// The daemon owns the redial loop from here: a dropped session
			// is redialed with jittered exponential backoff, and running
			// instances survive the gap.
			select {}
		}
		for d.Connected() {
			time.Sleep(time.Second)
		}
		log.Printf("splayd %s: connection lost, reconnecting", *name)
	}
}

// builtinRegistry is the application registry the daemon instantiates
// jobs from: every built-in, observed through the collect target at
// maddr (the zero address when the daemon has none).
func builtinRegistry(maddr transport.Addr, key string) *core.Registry {
	return apps.Registry(func(ctx *core.AppContext) apps.Observer {
		return &instanceObserver{ctx: ctx, addr: maddr, key: key}
	})
}

// instanceObserver is a built-in instance's observation plane on a
// daemon — what Env.Metrics/Env.StartReporting are under a Scenario, so
// report: true means the same in both: instruments on a registry of the
// instance's own, streamed to the collect target, or ErrNoCollector when
// the daemon has none.
type instanceObserver struct {
	ctx  *core.AppContext
	reg  *metrics.Registry
	addr transport.Addr // zero without -metrics
	key  string
}

func (o *instanceObserver) Metrics() *metrics.Registry {
	if o.reg == nil {
		o.reg = metrics.NewRegistry()
	}
	return o.reg
}

func (o *instanceObserver) StartReporting() error {
	if o.addr == (transport.Addr{}) {
		return splay.ErrNoCollector
	}
	rep, err := metrics.DialReporter(o.ctx.Node(), o.addr, o.Metrics(),
		metrics.ReporterConfig{Key: o.key, Node: o.ctx.Job.Me.Host})
	if err != nil {
		return err
	}
	o.ctx.Track(rep)
	o.ctx.Periodic(5*time.Second, func() { rep.Flush() }) //nolint:errcheck // monitoring is best effort
	return nil
}

// hostMain runs the hosting plane: a controller that plain splayd
// daemons connect to, wrapped by the multi-tenant hosting service and
// its HTTP/JSON API. The app registry lives in the daemons (hosted
// submissions reference built-ins by name), so the platform itself
// deploys nothing.
func hostMain(name string, port, httpPort int, useTLS bool, capacity int, tenants []hosting.Tenant) error {
	if len(tenants) == 0 {
		return fmt.Errorf("admit at least one -tenant name:key")
	}
	rt := core.NewLiveRuntime(time.Now().UnixNano())
	node := livenet.NewNode(name)
	if useTLS {
		cfg, err := livenet.SelfSignedTLS(name)
		if err != nil {
			return fmt.Errorf("tls: %w", err)
		}
		node.TLS = cfg
	}
	cfg := controller.DefaultConfig()
	cfg.Port = port
	ctl := controller.New(rt, node, cfg)
	if err := ctl.Start(); err != nil {
		return err
	}
	// Admission validates every submission — wire JSON or a config
	// document — against the built-in app catalog: unknown apps and
	// out-of-range params bounce as bad_scenario before queuing.
	svc := hosting.New(rt, ctl, hosting.Config{Capacity: capacity, Catalog: config.Builtins()})
	for _, t := range tenants {
		if err := svc.AddTenant(t); err != nil {
			return err
		}
	}
	log.Printf("splayd -host: daemons connect on %s (tls=%v); job API on :%d (%d tenants)",
		ctl.Addr(), useTLS, httpPort, len(tenants))
	return http.ListenAndServe(fmt.Sprintf(":%d", httpPort), svc.Handler())
}
