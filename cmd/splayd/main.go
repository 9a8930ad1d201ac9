// Command splayd runs a SPLAY daemon on a testbed host: it connects to
// the controller, accepts jobs and hosts sandboxed application instances
// (§3.1). Applications come from the built-in registry (chord, pastry,
// cyclon, epidemic, bittorrent).
//
// Usage:
//
//	splayd -controller 127.0.0.1:5555 -name host-a [-tls] [-reconnect]
//	       [-metrics 127.0.2.1:5556]
//	splayd -host [-port 5555] [-http 8080] [-metrics-port 5556]
//	       [-capacity n] [-operator ko] -tenant alice:ka:100 -tenant bob:kb
//
// Host mode is the platform (the paper's one controller and its §4
// splayweb front end): the only resident service. One process owns the
// controller that plain splayd daemons connect to on -port, the metric
// aggregator they and their instances stream to on -metrics-port, and
// the one HTTP/JSON surface on -http that splayctl and splay.Connect
// speak. Tenants (repeatable -tenant name:key[:maxnodes]) authenticate
// with their key, submit serialized Scenarios, and the platform queues,
// fair-share places, watches and kills their jobs on the shared fleet.
// The operator, holding -operator's key, reads the merged /metrics view
// (the controller's and the service's own instruments appear in it as
// nodes "ctl" and "host"), counts /daemons and runs fault drills;
// without -operator those routes refuse everyone. SIGINT/SIGTERM shuts
// down in order: stop serving, kill every hosted job on the fleet, close
// the aggregator, drop the daemons.
//
// The controller blacklists its own advertised host (-name) for
// applications, so a daemon whose instances should report (-metrics)
// names the platform machine by another of its addresses — on loopback,
// 127.0.2.1 when the platform runs as -name 127.0.0.1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

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
	metricsKey := flag.String("metrics-key", "splay", "key authenticating metric streams: daemons present it, the platform (host mode) requires it")
	reconnect := flag.Bool("reconnect", false,
		"redial the controller with jittered exponential backoff when the session drops")
	hostMode := flag.Bool("host", false,
		"run the resident hosting platform (controller + multi-tenant job API) instead of a daemon")
	hostPort := flag.Int("port", 5555, "daemon connection port (host mode)")
	httpPort := flag.Int("http", 8080, "hosting API port (host mode)")
	metricsPort := flag.Int("metrics-port", 5556, "metric aggregator port (host mode)")
	operatorKey := flag.String("operator", "",
		"key for the operator routes: /metrics, /daemons, /faults (host mode; empty refuses them)")
	capacity := flag.Int("capacity", 0,
		"instance budget for hosted jobs (host mode; 0 sizes it to the live daemon count)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "admit a tenant as name:key[:maxnodes] (host mode; repeatable)")
	flag.Parse()

	rt := core.NewLiveRuntime(time.Now().UnixNano())
	node := livenet.NewNode(*name)
	if *useTLS {
		cfg, err := livenet.SelfSignedTLS(*name)
		if err != nil {
			log.Fatalf("splayd: tls: %v", err)
		}
		node.TLS = cfg
	}

	if *hostMode {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := runHost(ctx, rt, node, hostOptions{
			port: *hostPort, httpPort: *httpPort, metricsPort: *metricsPort, capacity: *capacity,
			tenants: tenants, operatorKey: *operatorKey, metricsKey: *metricsKey,
		}, func(ctl, agg transport.Addr, api net.Addr) {
			log.Printf("splayd -host: daemons connect on %s (tls=%v), metric streams on %s, API on %s (%d tenants)",
				ctl, *useTLS, agg, api, len(tenants))
		})
		stop()
		if err != nil {
			log.Fatalf("splayd -host: %v", err)
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
		go report(context.Background(), node, maddr, reg, *metricsKey, *name)
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
// jobs from: every built-in, its instances granted the collect target at
// maddr — what report: true streams to, as under a Scenario. Without one
// (the zero address) report: true fails the instance with ErrNoCollector.
func builtinRegistry(maddr transport.Addr, key string) *core.Registry {
	var g core.Grant
	if maddr != (transport.Addr{}) {
		g.Collect = &core.Collect{Addr: maddr, Key: key, Every: 5 * time.Second}
	}
	return apps.Registry(g)
}

// report streams reg to the aggregator at addr as the named node until
// ctx ends, one flush per 5 s period. A failed dial is retried next
// period; a failed flush redials at once — Reconnect keeps the delta
// state, so the stream resumes with increments, never re-shipping
// lifetime totals.
func report(ctx context.Context, node transport.Node, addr transport.Addr, reg *metrics.Registry, key, name string) {
	var rep *metrics.Reporter
	var err error
	for {
		if rep == nil {
			rep, err = metrics.DialReporter(node, addr, reg, metrics.ReporterConfig{Key: key, Node: name})
		} else if err = rep.Flush(); err != nil {
			err = rep.Reconnect()
		}
		if err != nil {
			log.Printf("splayd: metrics: %v (retrying)", err)
		}
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
			if rep != nil {
				rep.Close() //nolint:errcheck // nothing left to flush to
			}
			return
		}
	}
}

// hostOptions is host mode's share of the command line.
type hostOptions struct {
	port, httpPort, metricsPort int
	capacity                    int
	tenants                     []hosting.Tenant
	operatorKey, metricsKey     string
}

// runHost runs the platform until ctx ends: a controller that plain
// splayd daemons connect to, the metric aggregator, and the multi-tenant
// hosting service behind the one HTTP surface. The app registry lives in
// the daemons (hosted submissions reference built-ins by name), so the
// platform itself deploys nothing. up is told the bound addresses once
// everything listens. On cancel it stops serving, kills every live job —
// which stops its instances on the fleet — and only then lets go of the
// aggregator and the daemons.
func runHost(ctx context.Context, rt core.Runtime, node transport.Node, o hostOptions, up func(ctl, agg transport.Addr, api net.Addr)) error {
	if len(o.tenants) == 0 {
		return errors.New("admit at least one -tenant name:key")
	}
	cfg := controller.DefaultConfig()
	cfg.Port = o.port
	ctl := controller.New(rt, node, cfg)
	ctlReg, hostReg := metrics.NewRegistry(), metrics.NewRegistry()
	ctl.SetInstruments(controller.NewInstruments(ctlReg))
	if err := ctl.Start(); err != nil {
		return err
	}
	defer ctl.Stop()
	agg, err := metrics.NewAggregator(node, o.metricsPort, func(fn func()) { go fn() })
	if err != nil {
		return fmt.Errorf("aggregator: %w", err)
	}
	defer agg.Close()
	agg.Authorize(o.metricsKey)
	// Admission validates every submission — wire JSON or a config
	// document — against the built-in app catalog: unknown apps and
	// out-of-range params bounce as bad_scenario before queuing.
	svc := hosting.New(rt, ctl, hosting.Config{
		Capacity: o.capacity, Catalog: config.Builtins(), Metrics: hostReg,
		OperatorKey: o.operatorKey, Aggregator: agg,
	})
	defer svc.Close()
	for _, t := range o.tenants {
		if err := svc.AddTenant(t); err != nil {
			return err
		}
	}
	// The platform's own instruments ride the collection plane like every
	// daemon's and instance's, so /metrics is one merged view.
	rctx, stopReports := context.WithCancel(ctx)
	var reports sync.WaitGroup
	defer reports.Wait()
	defer stopReports()
	for name, reg := range map[string]*metrics.Registry{"ctl": ctlReg, "host": hostReg} {
		reports.Add(1)
		go func() {
			defer reports.Done()
			report(rctx, node, agg.Addr(), reg, o.metricsKey, name)
		}()
	}

	ln, err := net.Listen("tcp", fmt.Sprintf(":%d", o.httpPort))
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	up(ctl.Addr(), agg.Addr(), ln.Addr())
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close() //nolint:errcheck // a request outlived the grace period; cut it
	}
	<-served // http.ErrServerClosed
	return nil
}
