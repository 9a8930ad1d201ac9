package topology

import (
	"math"
	"math/rand"
	"time"

	"github.com/splaykit/splay/internal/stream"
)

// PlanetLabConfig parameterizes the PlanetLab model.
type PlanetLabConfig struct {
	Hosts int
	Seed  int64
	// LossProb is the datagram loss probability between any pair.
	LossProb float64
}

// DefaultPlanetLab returns a model of the paper's PlanetLab slice
// (400–450 hosts were used; pass the desired count).
func DefaultPlanetLab(hosts int) PlanetLabConfig {
	if hosts <= 0 {
		hosts = 450
	}
	return PlanetLabConfig{Hosts: hosts, Seed: 1971, LossProb: 0.005}
}

// PlanetLab models the live testbed: wide-area delays plus per-host load.
// Host "slowness" is a persistent per-host percentile, matching the
// real-world observation that overloaded PlanetLab nodes stay overloaded,
// with small per-operation jitter. The slowness marginal distribution is
// calibrated against the paper's Fig. 3: for a 20 KB probe over an
// established TCP connection, 17.1% of hosts answer within 250 ms and
// about 45% need more than one second, with a tail out to ten seconds.
//
// PlanetLab implements simnet.LinkModel; its ProcDelay method plugs into
// simnet.Network.SetProcDelay to charge per-message load at receivers.
type PlanetLab struct {
	cfg  PlanetLabConfig
	base []time.Duration   // per-host one-way delay contribution
	slow []float64         // per-host slowness percentile in [0,1)
	bps  []float64         // per-host access bandwidth
	jit  []stream.Source64 // per-host jitter: the hooks run on the host's partition
}

// NewPlanetLab builds the model deterministically from its seed.
func NewPlanetLab(cfg PlanetLabConfig) *PlanetLab {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &PlanetLab{
		cfg:  cfg,
		base: make([]time.Duration, cfg.Hosts),
		slow: make([]float64, cfg.Hosts),
		bps:  make([]float64, cfg.Hosts),
		jit:  make([]stream.Source64, cfg.Hosts),
	}
	for i := 0; i < cfg.Hosts; i++ {
		p.jit[i].Init(cfg.Seed, "planetlab.jitter", uint64(i))
		// One-way contribution ~ lognormal, median 20 ms: pairwise RTTs
		// land mostly in 40–300 ms, median ≈ 80 ms.
		p.base[i] = time.Duration(20e3*math.Exp(rng.NormFloat64()*0.6)) * time.Microsecond
		p.slow[i] = rng.Float64()
		// Access bandwidth 0.5–4 MB/s.
		p.bps[i] = (0.5 + 3.5*rng.Float64()) * 1e6
	}
	return p
}

// NumHosts returns the modeled population size.
func (p *PlanetLab) NumHosts() int { return p.cfg.Hosts }

// Delay implements simnet.LinkModel.
func (p *PlanetLab) Delay(a, b int) time.Duration {
	if a == b {
		return 0
	}
	return p.base[a] + p.base[b]
}

// MinDelay implements simnet.MinDelayModel: the smallest delay between
// distinct hosts is the sum of the two smallest per-host contributions.
func (p *PlanetLab) MinDelay() time.Duration {
	if len(p.base) < 2 {
		return 0
	}
	lo1, lo2 := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for _, d := range p.base {
		if d < lo1 {
			lo1, lo2 = d, lo1
		} else if d < lo2 {
			lo2 = d
		}
	}
	return lo1 + lo2
}

// Loss implements simnet.LinkModel.
func (p *PlanetLab) Loss(a, b int) float64 { return p.cfg.LossProb }

// UplinkBps implements simnet.LinkModel.
func (p *PlanetLab) UplinkBps(host int) float64 { return p.bps[host] }

// DownlinkBps implements simnet.LinkModel.
func (p *PlanetLab) DownlinkBps(host int) float64 { return p.bps[host] }

// EdgeDelay reports the host's one-way contribution, used for mixed
// deployments.
func (p *PlanetLab) EdgeDelay(host int) time.Duration { return p.base[host] }

// slownessQuantile maps a percentile to the Fig. 3 probe-delay
// distribution: the piecewise inverse CDF hits the paper's published
// quantiles exactly (17.1% ≤ 250 ms, 55% ≤ 1 s, tail to 10 s).
func slownessQuantile(u float64) time.Duration {
	switch {
	case u < 0:
		u = 0
	case u >= 1:
		u = 0.999999
	}
	const (
		q1 = 0.171 // fraction at or under 250ms
		q2 = 0.55  // fraction at or under 1s
	)
	var ms float64
	switch {
	case u < q1:
		ms = 60 + (250-60)*(u/q1)
	case u < q2:
		ms = 250 + (1000-250)*((u-q1)/(q2-q1))
	default:
		// Log-linear from 1 s to 10 s.
		ms = 1000 * math.Pow(10, (u-q2)/(1-q2))
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// ProbeDelay samples the controller→host round-trip for a payload of size
// bytes over an established TCP connection: the quantity Fig. 3 plots for
// 20 KB payloads. It includes pairwise RTT, transfer time at the host's
// bandwidth and the host's (jittered) load-induced delay.
func (p *PlanetLab) ProbeDelay(host int, size int) time.Duration {
	u := p.slow[host] + rand.New(&p.jit[host]).NormFloat64()*0.02
	d := slownessQuantile(u)
	transfer := time.Duration(float64(size) / p.bps[host] * float64(time.Second))
	// The slowness quantile is the calibrated total; the physical floor
	// (round trip plus transfer) dominates only for fast, distant hosts.
	if floor := p.base[host]*2 + transfer; floor > d {
		return floor
	}
	return d
}

// ProcDelay charges per-message processing latency at a receiving host:
// light hosts add milliseconds, overloaded ones add hundreds. Plug into
// simnet.Network.SetProcDelay. The mean is the host's Fig. 3 slowness
// scaled down (a protocol message is far cheaper than a 20 KB probe
// round-trip), sampled exponentially per message.
func (p *PlanetLab) ProcDelay(host int, size int) time.Duration {
	mean := float64(slownessQuantile(p.slow[host])) / 14
	return time.Duration(rand.New(&p.jit[host]).ExpFloat64() * mean)
}
