// Package simbed builds the simulated substrate — kernel, network, one
// runtime per kernel partition — and is the only place product code does:
// the scenario SDK's simulated start and every experiment harness take
// theirs from a Bed, so how a run is seeded and how a host is bound to its
// partition's runtime is decided once.
//
// Seeding: no draw belongs to a partition. The network keys each host's
// loss stream by the seed and every runtime carries it, so a one-partition
// bed is exactly the single-kernel wiring (sim.NewKernel + simnet.New +
// core.NewSimRuntime on one seed).
//
// Binding: everything that belongs to a host — its runtime, its application
// context, the task that starts it — is resolved through the network's own
// placement (Net.Host(i).Part()), never re-derived from the host index. A
// host touched from another partition's task is a data race, not a failed
// test, so no caller gets to hold a second copy of the placement rule.
package simbed

import (
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// Bed is one simulated substrate.
type Bed struct {
	Par *sim.ParKernel // drives every partition
	K   *sim.Kernel    // partition 0: the whole simulation on a one-partition bed
	Net *simnet.Network

	rts []*core.SimRuntime // one per partition
}

// New builds a bed of len(place) hosts over the link model on a parts-way
// kernel driven by up to workers threads; proc, when non-nil, is the
// network's receiver-side processing-delay hook. place and look are the
// model's simnet.Placement on parts partitions, which the caller computed
// once (and chose parts by): host i lives on partition place[i], and the
// kernel's lookahead is look, the smallest delay between hosts on different
// partitions.
func New(parts, workers int, model simnet.LinkModel, place []int, look time.Duration, seed int64, proc simnet.ProcDelayFunc) (*Bed, error) {
	pk := sim.NewParKernel(parts, workers, look)
	nw, err := simnet.NewPlaced(pk, model, place, look, seed)
	if err != nil {
		return nil, err
	}
	nw.SetProcDelay(proc)
	b := &Bed{Par: pk, K: pk.Sub(0), Net: nw, rts: make([]*core.SimRuntime, parts)}
	for p := range b.rts {
		b.rts[p] = core.NewSimRuntime(pk.Sub(p), seed)
	}
	return b, nil
}

// Runtime returns the runtime of the partition that owns host.
func (b *Bed) Runtime(host int) *core.SimRuntime { return b.rts[b.Net.Host(host).Part()] }

// Context builds the application context of an instance on host, addressed
// at port: the host's node, its partition's runtime, and the host's 1-based
// rank as job.position.
func (b *Bed) Context(host, port int) *core.AppContext {
	me := transport.Addr{Host: simnet.HostName(host), Port: port}
	return core.NewAppContext(b.Runtime(host), b.Net.Node(host), core.JobInfo{Me: me, Position: host + 1}, nil)
}

// StartAll calls start for each of hosts, in the order given, on a task of
// the partition that owns the host — one task per partition — and runs the
// kernel until the starts settle. A partition stops at its first failure;
// the error returned is the first one in partition order.
func (b *Bed) StartAll(hosts []int, start func(host int) error) error {
	errs := make([]error, b.Par.Parts())
	for p := range errs {
		b.Par.Go(p, func() {
			for _, h := range hosts {
				if b.Net.Host(h).Part() != p {
					continue
				}
				if errs[p] = start(h); errs[p] != nil {
					return
				}
			}
		})
	}
	b.Par.Run()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
