package splay_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/memprof"
)

// hostedReleaseHeap is the live heap a ModelNet(2047) session holds once
// 40 hosted Cyclon jobs have come and gone and its kernel has passed two
// release boundaries with the fleet idle: the fleet, the controller, the
// hosting plane's records and what the kernel keeps for the fleet's idle
// traffic. It measures 3,759,000–3,791,000 B; the budget is that +10 %.
// While every instance parked its main task until Kill, it measured
// 4,171,000–4,174,000 B, and while the task pool kept up to 512 idle
// coroutines per partition and the event queue every slice a burst had
// grown, 4,978,000–4,986,000 B.
const hostedReleaseHeap = 4_170_000

// hostedReleaseSlack is how many goroutines the session may run beyond
// its live tasks: the idle coroutines the last epoch's traffic still
// needed (3 measured), and none of the jobs'. With the fixed cap of 512
// idle coroutines per partition there were 512.
const hostedReleaseSlack = 32

// TestHostedJobsReleaseTheirTasks: a resident platform on two kernel
// partitions hosts 40 Cyclon jobs to completion, then idles. A done job's
// instance tasks end with it. The jobs' deploy and teardown bursts need
// hundreds of coroutines at once; once the fleet is quiet again the kernel
// hands them back, so the goroutine count follows the live tasks
// (KernelStats().Tasks) and the heap the session's own state, not the
// largest burst it ever ran.
func TestHostedJobsReleaseTheirTasks(t *testing.T) {
	const jobs = 40
	before := runtime.NumGoroutine()
	heapBefore := memprof.LiveHeap()
	sess, err := splay.Scenario{
		Name:    "hosted-release",
		Seed:    1,
		Testbed: splay.ModelNet(2047),
		Apps:    []splay.AppSpec{{Name: "cyclon"}},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	if p := sess.Partitions(); p != 2 {
		t.Fatalf("the testbed runs on %d kernel partitions, want 2", p)
	}
	host, err := sess.Host(splay.HostConfig{
		Tenants: []splay.HostTenant{{Name: "t", Key: "kt"}},
		Catalog: splay.BuiltinCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		job := splay.Scenario{
			Name:     fmt.Sprintf("job-%d", i),
			Seed:     int64(i + 1),
			Apps:     []splay.AppSpec{{Name: "cyclon", Nodes: 32, FullList: true}},
			Duration: 10 * time.Second,
		}
		if _, err := host.Submit("kt", job); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		sess.RunFor(250 * time.Millisecond)
	}
	for wait := 0; ; wait++ {
		views, err := host.Jobs("kt")
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, v := range views {
			if v.State == splay.HostDone {
				done++
			} else if v.State.Terminal() {
				t.Fatalf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
		}
		if done == jobs {
			break
		}
		if wait == 120 {
			t.Fatalf("%d of %d jobs done after two simulated minutes", done, jobs)
		}
		sess.RunFor(time.Second)
	}
	// A done job's instances end as their daemons take the kill frames, not
	// a protocol period later; then three release epochs (≈ 8.6 s each)
	// pass, so two whole ones find the fleet idle whatever their phase.
	sess.RunFor(time.Second)
	if n := sess.KernelStats().Tasks; n != 0 {
		t.Errorf("%d tasks live a simulated second after the last job read done, want 0", n)
	}
	sess.RunFor(26 * time.Second)

	st := sess.KernelStats()
	extra := runtime.NumGoroutine() - before
	heap := memprof.LiveHeap() - heapBefore
	runtime.KeepAlive(sess)
	t.Logf("%d jobs done: %d goroutines beyond the baseline for %d live tasks; the kernel holds %d idle coroutines, %d free events, %d free waiters, %d queue slots; live heap %d B (budget %d)",
		jobs, extra, st.Tasks, st.IdleTasks, st.FreeEvents, st.FreeWaiters, st.QueueSlots, heap, hostedReleaseHeap)
	if extra > st.Tasks+hostedReleaseSlack {
		t.Errorf("%d goroutines beyond the baseline for %d live tasks, want at most %d more: the jobs' idle coroutines were kept",
			extra, st.Tasks, hostedReleaseSlack)
	}
	if !raceEnabled && heap > hostedReleaseHeap {
		t.Errorf("the quiet session holds %d B of live heap, budget %d", heap, hostedReleaseHeap)
	}
}
