package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// output runs the command line and returns what it printed, minus the two
// wall-clock lines ("=== id done in …", "total: …").
func output(t *testing.T, cmd string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(strings.Fields(cmd), &out); err != nil {
		t.Fatalf("splay-experiments %s: %v", cmd, err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, " done in ") && !strings.HasPrefix(line, "total: ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestCLIGolden pins what the command prints — the experiment list, headers,
// rows and the sorted metric lines — on the two experiments that cost
// nothing to run: fig4 (a churn trace under a non-default seed) and tab1
// (protocol NCLOC; it moves with any protocol edit, like the experiment
// golden that pins the same counts).
func TestCLIGolden(t *testing.T) {
	t.Parallel()
	for golden, cmd := range map[string]string{
		"testdata/list.golden": "-list",
		"testdata/fig4.golden": "-run fig4 -seed 11",
		"testdata/tab1.golden": "-run tab1",
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := output(t, cmd); got != string(want) {
			t.Errorf("splay-experiments %s drifted from %s:\n%s", cmd, golden, got)
		}
	}
}

// TestRunRejects: a run that cannot be what was asked for prints nothing —
// no header echoing a scale or an id that is not the one run — and reports
// through run's error: a scale outside (0,1] and a bad flag as usage, an
// unknown id as is.
func TestRunRejects(t *testing.T) {
	t.Parallel()
	for _, cmd := range []string{"-run fig3 -scale 5", "-run fig3 -scale 0", "-list -scale -1", "-run fig3 -scale NaN", "-nope"} {
		var out bytes.Buffer
		if err := run(strings.Fields(cmd), &out); !errors.Is(err, errUsage) || out.Len() != 0 {
			t.Errorf("splay-experiments %s: err = %v, printed %q; want usage and nothing", cmd, err, out.String())
		}
	}
	for _, cmd := range []string{"-run fig99", "-run fig99 -live", "-list -run fig99"} {
		var out bytes.Buffer
		err := run(strings.Fields(cmd), &out)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"fig99"`) || out.Len() != 0 {
			t.Errorf("splay-experiments %s: err = %v, printed %q; want the unknown id and nothing", cmd, err, out.String())
		}
	}
}
