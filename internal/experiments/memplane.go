package experiments

import (
	"github.com/splaykit/splay/internal/memprof"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/topology"
)

// chordFootprint is the memory plane's 10k-node smoke: build a converged
// Chord ring of n nodes on a parts-way sharded kernel (the lookup100k
// shape), run one lookup per node, and measure the live heap per
// instance while the whole system is still reachable. It is the
// denominator behind BENCH_mem.json and the ≥3× reduction gate; the
// lookup1m experiment is the same machinery at two more orders of
// magnitude.
func chordFootprint(n, parts, workers int, seed int64) (memprof.Report, *chordRun, error) {
	mn := topology.NewModelNet(topology.DefaultModelNet(n))
	pk := sim.NewParKernel(parts, workers, mn.MinDelay())
	acct := memprof.New()
	run, rep, err := runChordParProf(pk, mn, n, chord.DefaultConfig(), n, seed, nil, nil, acct)
	if err != nil {
		return memprof.Report{}, nil, err
	}
	return rep, run, nil
}
