package experiments

import (
	"io"
	"testing"
)

// TestHostplaneShape checks the hosting plane's small-scale run: every
// admitted job finishes, both rejections are observed, every hosted
// digest matches its local replay, and the fair-share order is visible
// in the queue waits (carol's job, queued after alice's third, starts
// first because alice already holds more of the fleet).
func TestHostplaneShape(t *testing.T) {
	t.Parallel()
	res := run(t, "hostplane", 0.05)
	if res.Metrics["jobs_done"] != 5 {
		t.Errorf("jobs done = %v, want 5", res.Metrics["jobs_done"])
	}
	if res.Metrics["rejects"] != 2 {
		t.Errorf("rejects = %v, want 2 (quota + auth)", res.Metrics["rejects"])
	}
	if res.Metrics["digest_match"] != 1 {
		t.Error("hosted digests diverged from local replays")
	}
	if res.Metrics["failed_lookups"] != 0 {
		t.Errorf("%v lookups failed on converged hosted rings", res.Metrics["failed_lookups"])
	}
	want := res.Metrics["jobs_done"] * res.Metrics["job_nodes"] * hpRounds
	if res.Metrics["lookups"] != want {
		t.Errorf("lookups = %v, want %v", res.Metrics["lookups"], want)
	}
	if c, a := res.Metrics["wait_carol_s"], res.Metrics["wait_alice3_s"]; c <= 0 || a <= c {
		t.Errorf("fair share not visible: carol waited %.1fs, alice's third %.1fs", c, a)
	}
	// The first submission lands on an idle platform: its wait is pure
	// placement, well under a second.
	if w := res.Metrics["wait_first_s"]; w <= 0 || w > 1 {
		t.Errorf("first job's queue wait %.2fs, want sub-second placement", w)
	}
}

// TestHostplane5000Daemons pins the headline capability: the resident
// platform hosts three tenants' concurrent 500-node Chord scenarios on
// one shared 5,000-daemon simulated fleet, with quotas enforced and
// every job's result byte-identical to a local run of the same
// serialized scenario.
func TestHostplane5000Daemons(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-population hosting run")
	}
	run, err := runHostplane(io.Discard, 5000, 500, 2009, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.jobsDone != 5 || run.rejects != 2 {
		t.Fatalf("jobs done %v, rejects %v, want 5/2", run.jobsDone, run.rejects)
	}
	if run.digestMatch != 1 {
		t.Fatal("hosted digests diverged from local replays at full scale")
	}
	if run.lookups != 5*500*hpRounds || run.failed != 0 {
		t.Fatalf("lookups %v (failed %v), want %d/0", run.lookups, run.failed, 5*500*hpRounds)
	}
	if run.waitCarolS <= 0 || run.waitAlice3S <= run.waitCarolS {
		t.Fatalf("fair share not visible: carol %.1fs, alice's third %.1fs", run.waitCarolS, run.waitAlice3S)
	}
}
