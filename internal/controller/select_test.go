package controller

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// stableFastest is the reference selection: the snapshot minus skip,
// stably sorted by rtt with unmeasured daemons last, cut to k.
func stableFastest(reg *registry, k int, skip map[string]bool) (best []*daemonSession, eligible int) {
	var ds []*daemonSession
	for _, d := range reg.snapshot() {
		if !skip[d.name] {
			ds = append(ds, d)
		}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		ra, rb := ds[i].rtt, ds[j].rtt
		if (ra == 0) != (rb == 0) {
			return rb == 0
		}
		return ra < rb
	})
	return ds[:min(k, len(ds))], len(ds)
}

// TestFastestSelectionMatchesStableSort checks the one-pass selection
// against the stable sort it replaces on random fleets: distinct RTTs,
// runs of equal RTTs, an all-unmeasured fleet, reconnects that reorder
// buckets, with and without a skip set, for k = 0, 1, a job size, n−1, n
// and n+5.
func TestFastestSelectionMatchesStableSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(29))
	fleets := []struct {
		name string
		rtt  func() time.Duration
	}{
		{"distinct", func() time.Duration {
			if rng.Intn(7) == 0 {
				return 0
			}
			return time.Duration(1+rng.Intn(1<<20)) * time.Microsecond
		}},
		{"runs of equal rtt", func() time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }},
		{"unmeasured", func() time.Duration { return 0 }},
	}
	for _, fleet := range fleets {
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(300)
			reg := newRegistry()
			put := func(i int) {
				name := fmt.Sprintf("d%d", i)
				reg.put(&daemonSession{name: name, hash: nameHash(name), conn: hostConn{}, rtt: fleet.rtt()})
			}
			for i := 0; i < n; i++ {
				put(i)
			}
			for r := 0; r < n/10; r++ {
				put(rng.Intn(n)) // a reconnect moves to the back of its bucket
			}
			var skip map[string]bool
			if trial%2 == 1 {
				skip = make(map[string]bool)
				for i := 0; i < n; i++ {
					if rng.Intn(4) == 0 {
						skip[fmt.Sprintf("d%d", i)] = true
					}
				}
			}
			nodes := 1 + rng.Intn(n+1)
			for _, k := range []int{0, 1, nodes, n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				got, eligible := reg.fastest(k, skip)
				want, wantEligible := stableFastest(reg, k, skip)
				if eligible != wantEligible {
					t.Fatalf("%s trial %d k=%d: eligible %d, want %d", fleet.name, trial, k, eligible, wantEligible)
				}
				if len(got) != len(want) {
					t.Fatalf("%s trial %d k=%d: %d selected, want %d", fleet.name, trial, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d k=%d: rank %d is %s (rtt %v), want %s (rtt %v)",
							fleet.name, trial, k, i, got[i].name, got[i].rtt, want[i].name, want[i].rtt)
					}
				}
			}
		}
	}
}
