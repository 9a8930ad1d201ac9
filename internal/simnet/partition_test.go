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

// TestStagedFaultsTakeEffectAtOneBarrier: on a two-partition network a
// Partition, Degrade or SetDown staged from a task of either partition lands
// on every partition at one virtual instant — the barrier that closes the
// window the task ran in — and the worker count moves nothing.
func TestStagedFaultsTakeEffectAtOneBarrier(t *testing.T) {
	const look = 5 * time.Millisecond
	run := func(workers int) string {
		pk := sim.NewParKernel(2, workers, look)
		nw, err := NewPartitioned(pk, Symmetric{RTT: 2 * look}, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Hosts 0 and 2 live on partition 0, hosts 1 and 3 on partition 1.
		// Every host logs into its own slice; index 4 and 5 belong to the
		// staging tasks of partitions 0 and 1.
		logs := make([][]string, 6)
		logf := func(i int, format string, args ...any) {
			logs[i] = append(logs[i], fmt.Sprintf(format, args...))
		}
		at := func(p int) time.Duration { return pk.Sub(p).Since() }
		// stage applies change from partition from at its current time t,
		// then stages a probe behind it onto both partitions, which checks
		// the change is visible there and records the instant.
		stage := func(from int, name string, change func(), visible func(p int) bool) {
			t0 := at(from)
			change()
			for p := 0; p < 2; p++ {
				nw.Stage(from, p, func() {
					b := at(p)
					if b <= t0 || b > t0+look || !visible(p) {
						t.Errorf("%s staged at %s: partition %d sees it=%v at %s, want at the window's barrier in (%s, %s]",
							name, t0, p, visible(p), b, t0, t0+look)
					}
					logf(4+p, "%s visible at %s", name, b)
				})
			}
		}
		for i := 0; i < 4; i++ {
			pk.Go(nw.Host(i).Part(), func() {
				l, _ := nw.Node(i).Listen(80)
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					pk.Go(nw.Host(i).Part(), func() {
						_, err := c.Read(make([]byte, 8))
						logf(i, "accepted conn read %v at %s", err, at(nw.Host(i).Part()))
					})
				}
			})
		}
		// Conns that the cut {0,1} | {2,3} crosses: 0→2 inside partition 0,
		// 1→3 inside partition 1, 0→3 across partitions.
		for _, pair := range [][2]int{{0, 2}, {1, 3}, {0, 3}} {
			from, to := pair[0], pair[1]
			pk.GoAfter(nw.Host(from).Part(), time.Millisecond, func() {
				c, err := nw.Node(from).Dial(transport.Addr{Host: HostName(to), Port: 80}, 0)
				if err != nil {
					t.Errorf("n%d dial n%d: %v", from, to, err)
					return
				}
				_, err = c.Read(make([]byte, 8))
				logf(from, "dialed n%d read %v at %s", to, err, at(nw.Host(from).Part()))
			})
		}
		// Ticks keep both partitions busy so windows stay short.
		for p := 0; p < 2; p++ {
			pk.Go(p, func() {
				for at(p) < 400*time.Millisecond {
					pk.Sub(p).Sleep(time.Millisecond)
				}
			})
		}
		pk.GoAfter(0, 103*time.Millisecond, func() {
			stage(0, "partition", func() { nw.Partition(0, []bool{false, false, true, true}) },
				func(p int) bool { return nw.parts[p].faults.cut(0, 3) })
		})
		pk.GoAfter(1, 152*time.Millisecond, func() {
			stage(1, "heal", func() { nw.HealPartition(1) },
				func(p int) bool { return nw.parts[p].faults.partition == nil })
		})
		pk.GoAfter(1, 201*time.Millisecond, func() {
			stage(1, "degrade", func() { nw.Degrade(1, nil, 100*time.Millisecond, 0) },
				func(p int) bool { return nw.parts[p].faults.degraded })
		})
		pk.GoAfter(0, 252*time.Millisecond, func() {
			// Host 3 belongs to partition 1: only it reads the flag, and
			// partition 0 sees the host refuse its dials.
			stage(0, "down", func() { nw.Stage(0, 1, func() { nw.Host(3).SetDown(true) }) },
				func(p int) bool { return p == 0 || nw.Host(3).down })
			pk.Sub(0).Sleep(5 * time.Millisecond)
			_, err := nw.Node(2).Dial(transport.Addr{Host: HostName(3), Port: 80}, 0)
			logf(2, "dial after down: %v at %s", err, at(0))
		})
		// Degradation reaches traffic from both partitions: a datagram
		// after the degrade takes RTT/2 + 100ms either way.
		for _, pair := range [][2]int{{2, 1}, {1, 2}} {
			from, to := pair[0], pair[1]
			pk.Go(nw.Host(to).Part(), func() {
				pc, _ := nw.Node(to).ListenPacket(90)
				buf := make([]byte, 8)
				n, _, err := pc.ReadFrom(buf)
				logf(to, "dgram %q %v at %s", buf[:n], err, at(nw.Host(to).Part()))
			})
			pk.GoAfter(nw.Host(from).Part(), 220*time.Millisecond, func() {
				pc, _ := nw.Node(from).ListenPacket(0)
				pc.WriteTo([]byte("slow"), transport.Addr{Host: HostName(to), Port: 90})
			})
		}
		pk.Run()
		var sb strings.Builder
		for i, l := range logs {
			fmt.Fprintf(&sb, "== %d ==\n%s\n", i, strings.Join(l, "\n"))
		}
		return sb.String()
	}
	ref := run(1)
	// Every endpoint of a crossing conn fails at the partition's barrier,
	// on both partitions; the degraded datagrams arrive 105 ms after their
	// 220 ms send, and the dial sent at 257 ms to the downed host is refused
	// one degraded round trip later.
	for _, want := range []string{
		"dialed n2 read transport: use of closed connection at 105ms",
		"dialed n3 read transport: use of closed connection at 105ms",
		"accepted conn read transport: use of closed connection at 105ms",
		"dial after down: transport: connection refused at 467ms", "partition visible at 105ms", "heal visible at 155ms",
		"degrade visible at 205ms", "down visible at 255ms", `dgram "slow" <nil> at 325ms`,
	} {
		if !strings.Contains(ref, want) {
			t.Errorf("trace lacks %q:\n%s", want, ref)
		}
	}
	if got := run(2); got != ref {
		t.Errorf("workers=2 trace differs from workers=1:\n--- w1 ---\n%s\n--- w2 ---\n%s", ref, got)
	}
}
