package simnet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// partitionedWorkload exercises every cross-partition path — dials, stream
// writes, EOFs, datagrams, refused dials — on a P-partition network and
// returns a deterministic trace plus final state. Each host logs only into
// its own slice, so the trace is race-free under any worker count and can
// be compared byte-for-byte across runs.
func partitionedWorkload(t *testing.T, parts, workers int) (string, Stats, time.Duration, uint64) {
	t.Helper()
	const n = 8
	pk := sim.NewParKernel(parts, workers, 5*time.Millisecond)
	nw, err := NewPartitioned(pk, Symmetric{RTT: 20 * time.Millisecond, Bps: 1 << 20}, n, 7)
	if err != nil {
		t.Fatal(err)
	}

	logs := make([][]string, n)
	logf := func(host int, format string, args ...any) {
		logs[host] = append(logs[host], fmt.Sprintf(format, args...))
	}

	for i := 0; i < n; i++ {
		i := i
		h := nw.Host(i)
		// Server: accept two connections, echo everything read.
		pk.Go(h.Part(), func() {
			l, err := nw.Node(i).Listen(80)
			if err != nil {
				t.Errorf("n%d listen: %v", i, err)
				return
			}
			for c := 0; c < 2; c++ {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				pk.Go(h.Part(), func() {
					buf := make([]byte, 256)
					for {
						m, err := conn.Read(buf)
						if err != nil {
							logf(i, "server read end: %v", err)
							conn.Close()
							return
						}
						logf(i, "server got %q from %s", buf[:m], conn.RemoteAddr().Host)
						if _, err := conn.Write(buf[:m]); err != nil {
							return
						}
					}
				})
			}
		})
		// Datagram listener.
		pk.Go(h.Part(), func() {
			pc, err := nw.Node(i).ListenPacket(90)
			if err != nil {
				t.Errorf("n%d listen packet: %v", i, err)
				return
			}
			buf := make([]byte, 256)
			for d := 0; d < 2; d++ {
				m, from, err := pc.ReadFrom(buf)
				if err != nil {
					return
				}
				logf(i, "dgram %q from %s", buf[:m], from.Host)
			}
		})
		// Client: dial across partitions, ping twice, close; then misdial a
		// dead port (refusal crosses back), then fire datagrams.
		pk.GoAfter(h.Part(), time.Duration(i)*time.Millisecond, func() {
			peer := (i + 3) % n
			c, err := nw.Node(i).Dial(transport.Addr{Host: HostName(peer), Port: 80}, 0)
			if err != nil {
				t.Errorf("n%d dial: %v", i, err)
				return
			}
			buf := make([]byte, 256)
			for p := 0; p < 2; p++ {
				msg := fmt.Sprintf("ping%d-from-n%d", p, i)
				if _, err := c.Write([]byte(msg)); err != nil {
					t.Errorf("n%d write: %v", i, err)
					return
				}
				m, err := c.Read(buf)
				if err != nil {
					t.Errorf("n%d echo read: %v", i, err)
					return
				}
				logf(i, "echo %q", buf[:m])
			}
			c.Close()
			if _, err := nw.Node(i).Dial(transport.Addr{Host: HostName(peer), Port: 81}, 0); err != transport.ErrRefused {
				t.Errorf("n%d misdial: got %v, want refused", i, err)
			}
			pc, err := nw.Node(i).ListenPacket(0)
			if err != nil {
				t.Errorf("n%d dgram socket: %v", i, err)
				return
			}
			for d := 0; d < 2; d++ {
				target := (i + 1 + d*2) % n
				pc.WriteTo([]byte(fmt.Sprintf("hail%d-from-n%d", d, i)), transport.Addr{Host: HostName(target), Port: 90})
			}
		})
	}
	pk.Run()

	var sb strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&sb, "== n%d ==\n", i)
		for _, line := range l {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nw.Stats(), pk.Since(), pk.Events()
}

// TestPartitionedWorkerNeutrality pins invariant 9 at the network layer:
// the same partitioned scenario produces the identical trace, stats, clock
// and event count whether it runs on 1, 2 or 4 worker threads.
func TestPartitionedWorkerNeutrality(t *testing.T) {
	trace1, stats1, since1, ev1 := partitionedWorkload(t, 4, 1)
	if !strings.Contains(trace1, "echo") || !strings.Contains(trace1, "dgram") {
		t.Fatalf("workload traced nothing useful:\n%s", trace1)
	}
	check := func(w int) {
		t.Helper()
		trace, stats, since, ev := partitionedWorkload(t, 4, w)
		if trace != trace1 {
			t.Errorf("workers=%d trace differs from workers=1:\n--- w1 ---\n%s\n--- w%d ---\n%s", w, trace1, w, trace)
		}
		if stats != stats1 {
			t.Errorf("workers=%d stats %+v != %+v", w, stats, stats1)
		}
		if since != since1 || ev != ev1 {
			t.Errorf("workers=%d clock/events (%s, %d) != (%s, %d)", w, since, ev, since1, ev1)
		}
	}
	for _, w := range []int{2, 4} {
		check(w)
	}
	// More workers than processors: the kernel's barrier parks instead of
	// spinning.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check(4)
}

// TestPartitionedSeedSensitivity guards against the neutrality test passing
// vacuously: a different seed must change nothing here (Symmetric draws no
// loss), but a different partition count changes host placement and may
// reorder the schedule — the trace must still be internally consistent.
func TestPartitionedPartitionCountsRun(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		trace, stats, _, _ := partitionedWorkload(t, p, 2)
		if stats.Dials != 16 || stats.RefusedDials != 8 {
			t.Errorf("parts=%d: dials %d refused %d, want 16/8", p, stats.Dials, stats.RefusedDials)
		}
		if c := strings.Count(trace, "echo"); c != 16 {
			t.Errorf("parts=%d: %d echoes, want 16", p, c)
		}
		if c := strings.Count(trace, "dgram"); c != 16 {
			t.Errorf("parts=%d: %d datagrams delivered, want 16", p, c)
		}
	}
}

// TestSinglePartitionMatchesPlainNetwork pins that New and a one-partition
// NewPartitioned are the same machine: same rng stream, same seq numbers,
// same schedule.
func TestSinglePartitionMatchesPlainNetwork(t *testing.T) {
	run := func(k *sim.Kernel, nw *Network, runKernel func() uint64) (time.Duration, Stats, []string) {
		var trace []string
		k.Go(func() {
			l, _ := nw.Node(1).Listen(80)
			c, err := l.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			for {
				n, err := c.Read(buf)
				if err != nil {
					trace = append(trace, fmt.Sprintf("server end %v at %s", err, k.Since()))
					return
				}
				trace = append(trace, fmt.Sprintf("server %q at %s", buf[:n], k.Since()))
			}
		})
		k.Go(func() {
			c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
			if err != nil {
				return
			}
			c.Write([]byte("one"))
			c.Write([]byte("two"))
			c.Close()
		})
		runKernel()
		return k.Since(), nw.Stats(), trace
	}

	k1 := sim.NewKernel()
	nw1 := New(k1, Symmetric{RTT: 30 * time.Millisecond, Bps: 1 << 16}, 2, 42)
	d1, s1, t1 := run(k1, nw1, k1.Run)

	pk := sim.NewParKernel(1, 1, 0)
	nw2, err := NewPartitioned(pk, Symmetric{RTT: 30 * time.Millisecond, Bps: 1 << 16}, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, t2 := run(pk.Sub(0), nw2, pk.Run)

	if d1 != d2 || s1 != s2 || !reflect.DeepEqual(t1, t2) {
		t.Errorf("single-partition network diverged from plain network:\nplain: %s %+v %q\npart:  %s %+v %q", d1, s1, t1, d2, s2, t2)
	}
}

func TestNewPartitionedValidation(t *testing.T) {
	type bare struct{ Symmetric }
	// A model hiding MinDelay behind a non-implementing wrapper.
	noMin := struct{ LinkModel }{Symmetric{RTT: 10 * time.Millisecond}}

	if _, err := NewPartitioned(sim.NewParKernel(2, 1, time.Millisecond), noMin, 4, 1); err == nil {
		t.Error("model without MinDelay accepted for 2 partitions")
	}
	if _, err := NewPartitioned(sim.NewParKernel(2, 1, 6*time.Millisecond), Symmetric{RTT: 10 * time.Millisecond}, 4, 1); err == nil {
		t.Error("lookahead above MinDelay accepted")
	}
	if _, err := NewPartitioned(sim.NewParKernel(2, 1, 5*time.Millisecond), Symmetric{RTT: 10 * time.Millisecond}, 4, 1); err != nil {
		t.Errorf("lookahead == MinDelay rejected: %v", err)
	}
	if _, err := NewPartitioned(sim.NewParKernel(1, 1, 0), noMin, 4, 1); err != nil {
		t.Errorf("single partition should not need MinDelay: %v", err)
	}
	_ = bare{}
}

func TestPartitionedFaultsPanic(t *testing.T) {
	pk := sim.NewParKernel(2, 1, 5*time.Millisecond)
	nw, err := NewPartitioned(pk, Symmetric{RTT: 10 * time.Millisecond}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on a partitioned network", name)
			}
		}()
		f()
	}
	expectPanic("Partition", func() { nw.Partition(make([]bool, 4)) })
	expectPanic("Degrade", func() { nw.Degrade(nil, time.Millisecond, 0) })
	expectPanic("SetDown", func() { nw.Host(0).SetDown(true) })
}
