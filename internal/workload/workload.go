// Package workload synthesizes the external inputs the paper's
// experiments consume: the Overnet availability trace driving Fig. 11's
// churn, the IRCache-style HTTP request stream driving Fig. 14's
// cooperative web cache, and block workloads for dissemination runs. Each
// generator documents how it preserves the statistical properties the
// original data contributes (see DESIGN.md, substitutions).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/splaykit/splay/internal/churn"
)

// OvernetConfig parameterizes the synthetic Overnet availability trace.
// The paper replays the trace of Bhagwan et al.'s Overnet study [12]:
// ≈600–650 concurrent nodes with heavy, session-based churn; sped up 10×
// it reaches ≈14% of nodes changing state per minute (§5.5).
type OvernetConfig struct {
	Nodes    int           // target concurrent population
	Duration time.Duration // trace length (paper window: ≈50 minutes at 1×… scaled)
	Seed     int64
}

// The Overnet session lengths match the Fig. 11 setup at 1× speed: with a
// 143-minute mean session and one-hour mean downtime, the per-minute
// state-change rate is ≈1.4% of the live population at 1×, hence ≈14% at
// the paper's 10× speed-up.
const (
	meanSession = 143 * time.Minute // mean node uptime
	meanAway    = 60 * time.Minute  // mean downtime before rejoining
)

// DefaultOvernet matches the Fig. 11 setup at 1× speed.
func DefaultOvernet() OvernetConfig {
	return OvernetConfig{
		Nodes:    620,
		Duration: 50 * time.Minute,
		Seed:     12,
	}
}

// OvernetTrace generates an availability trace with exponential on/off
// sessions. The node pool is sized so the steady-state live population is
// cfg.Nodes; each rejoin uses a fresh slot, since a returning peer is a
// new overlay instance.
func OvernetTrace(cfg OvernetConfig) churn.Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	up := float64(meanSession) / float64(meanSession+meanAway)
	pool := int(float64(cfg.Nodes)/up + 0.5)
	var tr churn.Trace
	slot := 0
	session := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(meanSession))
	}
	away := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(meanAway))
	}
	for i := 0; i < pool; i++ {
		at := time.Duration(0)
		// Random initial phase: up with the steady-state probability
		// (sessions are memoryless, so the residual is Exp again).
		if rng.Float64() < up {
			cur := slot
			slot++
			tr = append(tr, churn.Event{At: 0, Action: churn.Join, Node: cur})
			at = session()
			if at >= cfg.Duration {
				continue
			}
			tr = append(tr, churn.Event{At: at, Action: churn.Leave, Node: cur})
			at += away()
		} else {
			at = away()
		}
		for at < cfg.Duration {
			cur := slot
			slot++
			tr = append(tr, churn.Event{At: at, Action: churn.Join, Node: cur})
			at += session()
			if at >= cfg.Duration {
				break
			}
			tr = append(tr, churn.Event{At: at, Action: churn.Leave, Node: cur})
			at += away()
		}
	}
	tr.Sort()
	return tr
}

// WebConfig parameterizes the HTTP request stream. The paper injects 100
// requests per second drawn from IRCache proxy traces: 1.7 million hits
// to 42,000 distinct URLs over the measured window, a popularity skew
// that yields a 77.6% hit ratio under the §5.7 cache policy.
type WebConfig struct {
	URLs       int     // distinct URL population
	ZipfS      float64 // Zipf exponent (s > 1)
	RatePerSec float64 // request rate
	Seed       int64
}

// DefaultWeb matches Fig. 14's workload.
func DefaultWeb() WebConfig {
	return WebConfig{URLs: 42000, ZipfS: 1.22, RatePerSec: 100, Seed: 14}
}

// WebRequests produces a deterministic request stream: URL indices with
// Zipf popularity plus exponential inter-arrivals. Call Next repeatedly.
type WebRequests struct {
	cfg  WebConfig
	zipf *rand.Zipf
	rng  *rand.Rand
	now  time.Duration
}

// NewWebRequests builds the generator.
func NewWebRequests(cfg WebConfig) (*WebRequests, error) {
	if cfg.URLs <= 0 || cfg.ZipfS <= 1 || cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("workload: invalid web config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.URLs-1))
	if z == nil {
		return nil, fmt.Errorf("workload: zipf rejected s=%f", cfg.ZipfS)
	}
	return &WebRequests{cfg: cfg, zipf: z, rng: rng}, nil
}

// Next returns the next request: its offset from stream start and URL.
func (w *WebRequests) Next() (at time.Duration, url string) {
	w.now += time.Duration(w.rng.ExpFloat64() / w.cfg.RatePerSec * float64(time.Second))
	return w.now, fmt.Sprintf("http://origin.example/%d", w.zipf.Uint64())
}

// TheoreticalHitRatio estimates the best-case hit ratio of an aggregate
// cache holding `capacity` distinct URLs under this Zipf popularity: the
// probability mass of the `capacity` most popular URLs. It guides
// calibration against the paper's 77.6%.
func (c WebConfig) TheoreticalHitRatio(capacity int) float64 {
	if capacity >= c.URLs {
		return 1
	}
	// Zipf pmf ∝ 1/(1+k)^s for rand.NewZipf with v=1.
	total, top := 0.0, 0.0
	for k := 0; k < c.URLs; k++ {
		p := 1 / math.Pow(1+float64(k), c.ZipfS)
		total += p
		if k < capacity {
			top += p
		}
	}
	return top / total
}

// ProbeSamples drives Fig. 3: n probe delays drawn from the PlanetLab
// model's per-host distribution via the provided sampler.
func ProbeSamples(n int, hosts int, sample func(host int) time.Duration) []time.Duration {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sample(i%hosts))
	}
	return out
}
