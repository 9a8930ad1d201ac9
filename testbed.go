package splay

import (
	"time"

	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/topology"
)

// Testbed selects where a Scenario provisions its controller and
// daemons: a simulated network model executed in virtual time, or live
// processes on real sockets. Constructors: PlanetLab, ModelNet, Uniform
// (simulation) and Live (real network).
type Testbed interface {
	// Daemons is the provisioned daemon population.
	Daemons() int
	isTestbed()
}

// simTestbed is a simulated testbed: a link model over total hosts
// (daemons plus the controller and, when metrics are collected, a
// dedicated monitoring host). kind (plus rtt/bps for Uniform) names the
// model, so a Scenario can serialize its testbed and Unmarshal can
// rebuild an equivalent one (see serialize.go).
type simTestbed struct {
	daemons int
	kind    string        // "planetlab", "modelnet" or "uniform"
	rtt     time.Duration // Uniform only
	bps     float64       // Uniform only
}

func (t *simTestbed) Daemons() int { return t.daemons }
func (t *simTestbed) isTestbed()   {}

// build makes the testbed's link model over total hosts, and its
// receiver-side processing delay (nil when the model has none).
func (t *simTestbed) build(total int, seed int64) (simnet.LinkModel, simnet.ProcDelayFunc) {
	switch t.kind {
	case "planetlab":
		cfg := topology.DefaultPlanetLab(total)
		cfg.Seed = seed
		pl := topology.NewPlanetLab(cfg)
		return pl, pl.ProcDelay
	case "modelnet":
		return topology.NewModelNet(topology.DefaultModelNet(total)), nil
	}
	return simnet.Symmetric{RTT: t.rtt, Bps: t.bps}, nil
}

// PlanetLab simulates a PlanetLab-like testbed of the given daemon
// population: heavy-tailed host slowness, per-host asymmetric access
// links and a loss floor (the paper's §5.2-5.3 deployment environment).
func PlanetLab(daemons int) Testbed {
	return &simTestbed{daemons: daemons, kind: "planetlab"}
}

// ModelNet simulates a ModelNet-style emulation cluster: a transit-stub
// topology with shortest-path delays (the paper's §5.2 cluster).
func ModelNet(daemons int) Testbed {
	return &simTestbed{daemons: daemons, kind: "modelnet"}
}

// Uniform simulates a homogeneous cluster: every pair of hosts shares
// the same round-trip time and per-host bandwidth (0 = unlimited).
// Daemons may be 0 when a churn trace drives the population instead.
func Uniform(daemons int, rtt time.Duration, bps float64) Testbed {
	return &simTestbed{daemons: daemons, kind: "uniform", rtt: rtt, bps: bps}
}

// liveTestbed provisions a controller and daemons in-process on real
// loopback sockets: the splayctl+splayd chain of the paper collapsed
// into one binary, as the quickstart runs it.
type liveTestbed struct{ daemons int }

func (t *liveTestbed) Daemons() int { return t.daemons }
func (t *liveTestbed) isTestbed()   {}

// The live testbed's loopback layout.
const (
	liveCtlHost   = "127.0.0.1" // the controller's address
	liveAggHost   = "127.0.2.1" // the aggregator's: the controller's host is blacklisted for applications
	liveDaemonNet = "127.0.1"   // daemon i is liveDaemonNet.(i+1)
	liveBasePort  = 21000       // first daemon's application port range
	livePortSpan  = 100         // application ports per daemon
)

// Live provisions an in-process controller plus the given number of
// daemons on loopback addresses (the controller on 127.0.0.1, daemons on
// 127.0.1.x), each daemon with its own application port range probed for
// availability. The controller and the metric aggregator bind ephemeral
// ports, so concurrent scenarios coexist on one machine.
func Live(daemons int) Testbed { return &liveTestbed{daemons: daemons} }
