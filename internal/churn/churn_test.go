package churn

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
)

func TestParsePaperScript(t *testing.T) {
	s, err := ParseScript(PaperScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(s.Phases))
	}
	p := s.Phases[0]
	if p.From != 30*time.Second || p.JoinN != 10 {
		t.Fatalf("phase 1 wrong: %+v", p)
	}
	p = s.Phases[2]
	if !p.Const || p.ChurnPct != 0.5 || p.From != 10*time.Minute || p.To != 15*time.Minute {
		t.Fatalf("phase 3 wrong: %+v", p)
	}
	p = s.Phases[3]
	if p.LeavePct != 0.5 {
		t.Fatalf("phase 4 wrong: %+v", p)
	}
	p = s.Phases[4]
	if p.IncN != 10 || p.ChurnPct != 1.5 {
		t.Fatalf("phase 5 wrong: %+v", p)
	}
	if !s.Phases[5].Stop {
		t.Fatalf("phase 6 wrong: %+v", s.Phases[5])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"jump 5m",
		"at x join 3",
		"at 5m join -2",
		"at 5m explode 2",
		"from 10m to 5m inc 3",
		"from 5m to 10m wobble",
		"from 5m to 10m inc 5 churn 50", // missing %
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("parsed invalid script %q", src)
		}
	}
	// Comments and blank lines are fine.
	if _, err := ParseScript("# comment\n\nat 10s join 3 # trailing\n"); err != nil {
		t.Errorf("comments rejected: %v", err)
	}
}

func TestFromScriptPopulationShape(t *testing.T) {
	// The Fig. 4 script: population 0→10 at 30s, →20 by 10m, constant
	// (churned) to 15m, halved at 15m, →20 by 20m, then 0.
	s, err := ParseScript(PaperScript)
	if err != nil {
		t.Fatal(err)
	}
	tr := FromScript(s, 1)
	pop, joins, leaves := tr.Population(time.Minute)

	at := func(min int) int { return pop[min] }
	if at(0) != 10 {
		t.Errorf("population after 30s join = %d, want 10", at(0))
	}
	if at(9) < 18 || at(9) > 20 {
		t.Errorf("population at 10m = %d, want ≈20", at(9))
	}
	if at(14) < 18 || at(14) > 22 {
		t.Errorf("population at 15m = %d, want ≈20 (const churn)", at(14))
	}
	if at(15) < 9 || at(15) > 13 {
		t.Errorf("population after massive leave = %d, want ≈10", at(15))
	}
	if final := pop[len(pop)-1]; final != 0 {
		t.Errorf("final population = %d, want 0", final)
	}
	// Phase 3 (minutes 10–14) must show both joins and leaves (churn).
	churnJoins, churnLeaves := 0, 0
	for m := 10; m < 15; m++ {
		churnJoins += joins[m]
		churnLeaves += leaves[m]
	}
	if churnJoins < 5 || churnLeaves < 5 {
		t.Errorf("const-churn phase: joins=%d leaves=%d, want ≈10 each", churnJoins, churnLeaves)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	s, _ := ParseScript(PaperScript)
	tr := FromScript(s, 2)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("round trip length %d != %d", len(back), len(tr))
	}
	for i := range tr {
		if back[i].Action != tr[i].Action || back[i].Node != tr[i].Node {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, back[i], tr[i])
		}
		if d := back[i].At - tr[i].At; d > time.Millisecond || d < -time.Millisecond {
			t.Fatalf("event %d time drift %s", i, d)
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	bad := []string{"x join 0", "1.0 explode 0", "1.0 join -1", "1.0 join"}
	for _, line := range bad {
		if _, err := ReadTrace(strings.NewReader(line)); err == nil {
			t.Errorf("parsed invalid trace line %q", line)
		}
	}
}

func TestSpeedUp(t *testing.T) {
	tr := Trace{{At: 10 * time.Minute, Action: Join, Node: 0}}
	fast := tr.SpeedUp(10)
	if fast[0].At != time.Minute {
		t.Fatalf("sped-up time = %s, want 1m", fast[0].At)
	}
}

func TestAmplifyPreservesTimelineAndAddsTurnover(t *testing.T) {
	s, _ := ParseScript(PaperScript)
	tr := FromScript(s, 3)
	amp := tr.Amplify(2, 3)
	if len(amp) <= len(tr) {
		t.Fatalf("amplified trace not larger: %d vs %d", len(amp), len(tr))
	}
	pop, _, _ := tr.Population(time.Minute)
	apop, _, _ := amp.Population(time.Minute)
	// Population shape is preserved within a small band.
	for i := 0; i < len(pop) && i < len(apop); i++ {
		diff := apop[i] - pop[i]
		if diff < -3 || diff > 3 {
			t.Fatalf("amplified population diverges at minute %d: %d vs %d", i, apop[i], pop[i])
		}
	}
}

// Property: traces generated from any valid script are balanced — a slot
// never leaves while down or joins while up, and population never goes
// negative.
func TestQuickTraceWellFormed(t *testing.T) {
	f := func(seed int64, joins uint8, churn uint8) bool {
		src := "at 10s join " + itoa(int(joins)%40+2) + "\n" +
			"from 1m to 3m const churn " + itoa(int(churn)%200) + "%\n" +
			"at 4m stop"
		s, err := ParseScript(src)
		if err != nil {
			return false
		}
		tr := FromScript(s, seed)
		up := map[int]bool{}
		for _, e := range tr {
			switch e.Action {
			case Join:
				if up[e.Node] {
					return false
				}
				up[e.Node] = true
			case Leave:
				if !up[e.Node] {
					return false
				}
				delete(up, e.Node)
			}
		}
		return len(up) == 0 // stop empties the system
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestAmplifyWellFormedHighFactor(t *testing.T) {
	s, _ := ParseScript(PaperScript)
	for _, factor := range []float64{1, 1.5, 3.5, 10} {
		tr := FromScript(s, 4).Amplify(factor, 4)
		up := map[int]bool{}
		for _, e := range tr {
			switch e.Action {
			case Join:
				if up[e.Node] {
					t.Fatalf("factor %.1f: double join of slot %d", factor, e.Node)
				}
				up[e.Node] = true
			case Leave:
				if !up[e.Node] {
					t.Fatalf("factor %.1f: leave of down slot %d", factor, e.Node)
				}
				delete(up, e.Node)
			}
		}
	}
}

func TestExecutorReplaysTrace(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	var log []string
	start := func(slot int) { log = append(log, "start") }
	stop := func(slot int) { log = append(log, "stop") }
	tr := Trace{
		{At: time.Second, Action: Join, Node: 0},
		{At: 2 * time.Second, Action: Join, Node: 1},
		{At: 3 * time.Second, Action: Leave, Node: 0},
		{At: 3 * time.Second, Action: Leave, Node: 0}, // duplicate ignored
	}
	ex := NewExecutor(rt, tr, start, stop)
	ex.Run()
	k.Run()
	if len(log) != 3 {
		t.Fatalf("executor issued %d commands, want 3: %v", len(log), log)
	}
	if ex.Alive() != 1 {
		t.Fatalf("alive = %d, want 1", ex.Alive())
	}
	started, stopped := ex.Counts()
	if started != 2 || stopped != 1 {
		t.Fatalf("counts = %d/%d", started, stopped)
	}
}

func TestExecutorStopCancels(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	n := 0
	start, stop := func(int) { n++ }, func(int) {}
	ex := NewExecutor(rt, Trace{{At: time.Minute, Action: Join, Node: 0}}, start, stop)
	ex.Run()
	ex.Stop()
	k.Run()
	if n != 0 {
		t.Fatalf("canceled event fired")
	}
}

// TestExecutorSpawnsInTraceOrder: events that share an instant start in
// trace order at that instant, and a Stop between instants cancels what
// is left of a long trace.
func TestExecutorSpawnsInTraceOrder(t *testing.T) {
	k := sim.NewKernel()
	rt := core.NewSimRuntime(k, 1)
	var log []string
	start := func(slot int) { log = append(log, fmt.Sprintf("%s start %d", k.Since(), slot)) }
	stop := func(slot int) { log = append(log, fmt.Sprintf("%s stop %d", k.Since(), slot)) }
	tr := Trace{
		{At: 2 * time.Second, Action: Leave, Node: 3},
		{At: time.Second, Action: Join, Node: 3},
		{At: time.Second, Action: Join, Node: 1},
		{At: 2 * time.Second, Action: Join, Node: 2},
		{At: time.Second, Action: Join, Node: 2},
		{At: time.Hour, Action: Join, Node: 9},
	}
	for i := 0; i < 1000; i++ {
		tr = append(tr, Event{At: time.Hour + time.Duration(i)*time.Second, Action: Join, Node: 10 + i})
	}
	ex := NewExecutor(rt, tr, start, stop)
	k.Go(ex.Run)
	k.RunFor(3 * time.Second)
	want := []string{"1s start 3", "1s start 1", "1s start 2", "2s stop 3"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("replay = %q, want %q", log, want)
	}
	ex.Stop()
	k.Run()
	if len(log) != len(want) {
		t.Fatalf("%d commands after Stop, want none", len(log)-len(want))
	}
}
