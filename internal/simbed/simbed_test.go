package simbed

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// lossy drops half of all datagrams, so which ones arrive is a trace of the
// network's random stream.
type lossy struct{ simnet.Symmetric }

func (lossy) Loss(a, b int) float64 { return 0.5 }

// trace runs 200 datagrams from host 0 to host 1 and returns which arrived
// and when the last one did (the network's stream and its processing hook),
// followed by eight draws of the runtime's.
func trace(k *sim.Kernel, nw *simnet.Network, rt *core.SimRuntime, run func() uint64) (arrived []byte, last time.Duration, draws []int64) {
	k.Go(func() {
		pc, _ := nw.Node(1).ListenPacket(5000)
		buf := make([]byte, 1)
		pc.SetReadDeadline(k.Now().Add(time.Minute))
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				return
			}
			arrived, last = append(arrived, buf[0]), k.Since()
		}
	})
	k.Go(func() {
		pc, _ := nw.Node(0).ListenPacket(0)
		for i := 0; i < 200; i++ {
			pc.WriteTo([]byte{byte(i)}, transport.Addr{Host: "n1", Port: 5000})
			rt.Sleep(time.Millisecond)
		}
	})
	run()
	for i := 0; i < 8; i++ {
		draws = append(draws, rt.Rand().Int63())
	}
	return arrived, last, draws
}

// TestOnePartitionIsHistoricalWiring: a one-partition bed is sim.NewKernel +
// simnet.New + core.NewSimRuntime on one seed — same network stream, same
// processing hook, same runtime stream, same run loop.
func TestOnePartitionIsHistoricalWiring(t *testing.T) {
	model := lossy{simnet.Symmetric{RTT: 10 * time.Millisecond}}
	proc := func(host, size int) time.Duration { return time.Duration(host+size) * time.Millisecond }
	const seed = 42

	k := sim.NewKernel()
	nw := simnet.New(k, model, 2, seed)
	nw.SetProcDelay(proc)
	a1, l1, d1 := trace(k, nw, core.NewSimRuntime(k, seed), k.Run)

	bed, err := New(1, 1, 0, model, 2, seed, proc)
	if err != nil {
		t.Fatal(err)
	}
	a2, l2, d2 := trace(bed.K, bed.Net, bed.Runtime(0), bed.Par.Run)

	if len(a1) == 0 || len(a1) == 200 {
		t.Fatalf("%d of 200 datagrams arrived: the loss stream is not being exercised", len(a1))
	}
	if !reflect.DeepEqual(a1, a2) || l1 != l2 || !reflect.DeepEqual(d1, d2) {
		t.Errorf("one-partition bed diverged from the plain wiring:\nplain: %v at %s, rand %v\nbed:   %v at %s, rand %v", a1, l1, d1, a2, l2, d2)
	}
}

// TestHostsBindToTheirPartition: at four partitions a host's runtime and
// context are its partition's — the runtime seeded seed+p — and StartAll
// runs each start, in the order given, on a task of the host's partition.
// The per-partition logs are written without synchronization and every start
// sleeps on its host's runtime: a start placed on another partition's task
// panics under one worker (that kernel has no current task) and is a data
// race under four.
func TestHostsBindToTheirPartition(t *testing.T) {
	const hosts, parts, seed = 13, 4, 7
	model := simnet.Symmetric{RTT: 10 * time.Millisecond}
	for _, workers := range []int{1, 4} {
		bed, err := New(parts, workers, model.MinDelay(), model, hosts, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		byPart := make([]*core.SimRuntime, parts)
		for i := 0; i < hosts; i++ {
			p := bed.Net.Host(i).Part()
			if byPart[p] == nil {
				byPart[p] = bed.Runtime(i)
				if got, want := byPart[p].Rand().Int63(), rand.New(rand.NewSource(seed+int64(p))).Int63(); got != want {
					t.Errorf("partition %d's runtime is not seeded seed+%d", p, p)
				}
			}
			ctx := bed.Context(i, 8000+i)
			if bed.Runtime(i) != byPart[p] || ctx.Runtime() != core.Runtime(byPart[p]) || ctx.Node() != bed.Net.Node(i) {
				t.Errorf("host %d (partition %d) is bound to another partition's runtime or another host's node", i, p)
			}
			if want := (core.JobInfo{Me: transport.Addr{Host: simnet.HostName(i), Port: 8000 + i}, Position: i + 1}); !reflect.DeepEqual(ctx.Job, want) {
				t.Errorf("host %d: job = %+v, want %+v", i, ctx.Job, want)
			}
		}
		for p, rt := range byPart {
			for q := 0; q < p; q++ {
				if rt == nil || rt == byPart[q] {
					t.Fatalf("partitions %d and %d do not have one runtime each", q, p)
				}
			}
		}

		order := []int{12, 0, 5, 11, 3, 6, 1, 9, 2, 10, 4, 8, 7}
		started, want := make([][]int, parts), make([][]int, parts)
		for _, h := range order {
			p := bed.Net.Host(h).Part()
			want[p] = append(want[p], h)
		}
		err = bed.StartAll(order, func(h int) error {
			p := bed.Net.Host(h).Part()
			bed.Runtime(h).Sleep(time.Millisecond)
			started[p] = append(started[p], h)
			return nil
		})
		if err != nil || !reflect.DeepEqual(started, want) {
			t.Errorf("workers=%d: StartAll = %v, started %v per partition, want %v", workers, err, started, want)
		}
	}
}

// TestStartAllFirstErrorInPartitionOrder: a partition stops at its first
// failure, the others finish, and the error reported is the lowest failing
// partition's — whatever order the workers ran them in.
func TestStartAllFirstErrorInPartitionOrder(t *testing.T) {
	const hosts, parts = 12, 4
	model := simnet.Symmetric{RTT: 10 * time.Millisecond}
	bed, err := New(parts, parts, model.MinDelay(), model, hosts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	started := make([][]int, parts)
	order := make([]int, hosts)
	for i := range order {
		order[i] = i
	}
	err = bed.StartAll(order, func(h int) error {
		p := bed.Net.Host(h).Part()
		started[p] = append(started[p], h)
		if p == 3 || (p == 1 && len(started[p]) == 2) {
			return fmt.Errorf("host %d on partition %d", h, p)
		}
		return nil
	})
	for p, n := range []int{3, 2, 3, 1} {
		if len(started[p]) != n {
			t.Errorf("partition %d started %v, want %d hosts", p, started[p], n)
		}
	}
	if want := fmt.Sprintf("host %d on partition 1", started[1][1]); err == nil || err.Error() != want {
		t.Errorf("StartAll = %v, want %q", err, want)
	}
}

// TestNewReturnsSimnetsError: sharding constrains the link model, and the
// bed reports that as simnet does.
func TestNewReturnsSimnetsError(t *testing.T) {
	noMin := struct{ simnet.LinkModel }{simnet.Symmetric{RTT: 10 * time.Millisecond}}
	if _, err := New(2, 1, time.Millisecond, noMin, 4, 1, nil); err == nil || !strings.Contains(err.Error(), "MinDelay") {
		t.Errorf("New with a model hiding MinDelay on 2 partitions = %v, want simnet's error", err)
	}
	if _, err := New(1, 1, 0, noMin, 4, 1, nil); err != nil {
		t.Errorf("one partition should not need MinDelay: %v", err)
	}
}
