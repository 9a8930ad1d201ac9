package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// pipe runs the subcommands in order, each reading the previous one's
// output, like `splay-churn a | splay-churn b`.
func pipe(t *testing.T, cmds ...string) []byte {
	t.Helper()
	var in bytes.Buffer
	for _, cmd := range cmds {
		var out bytes.Buffer
		if err := run(strings.Fields(cmd), &in, &out); err != nil {
			t.Fatalf("splay-churn %s: %v", cmd, err)
		}
		in = out
	}
	return in.Bytes()
}

// TestPipelinesGolden pins the §5.5 tool chain end to end: the paper's
// Fig. 4 script compiled to a trace and summarized, and the same trace
// sped up and amplified. A change to script expansion, the trace format
// or either transformation shows up as a reviewed diff.
func TestPipelinesGolden(t *testing.T) {
	t.Parallel()
	for golden, cmds := range map[string][]string{
		"testdata/fig4_stats.golden":     {"example", "gen -seed 1", "stats -bucket 5m"},
		"testdata/fig4_amplified.golden": {"gen -seed 1", "speedup -factor 10", "amplify -factor 2 -seed 3", "stats -bucket 30s"},
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := pipe(t, cmds...); !bytes.Equal(got, want) {
			t.Errorf("%v drifted from %s:\n%s", cmds, golden, got)
		}
	}
	// speedup leaves the events alone: slowing the trace back down
	// restores it byte for byte.
	if orig, back := pipe(t, "gen -seed 1"), pipe(t, "gen -seed 1", "speedup -factor 4", "speedup -factor 0.25"); !bytes.Equal(orig, back) {
		t.Error("speedup 4 then 0.25 did not round-trip the trace")
	}
}

// TestRunErrors: subcommands report through run's error, never by
// exiting — unknown subcommands and bad flags as usage, bad input as is.
func TestRunErrors(t *testing.T) {
	t.Parallel()
	for _, cmd := range []string{"", "bogus", "stats -nope"} {
		if err := run(strings.Fields(cmd), strings.NewReader(""), &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("splay-churn %s: err = %v, want usage", cmd, err)
		}
	}
	if err := run([]string{"stats"}, strings.NewReader("12 jump 3\n"), &bytes.Buffer{}); err == nil || errors.Is(err, errUsage) {
		t.Errorf("stats on a malformed trace: err = %v, want the parse error", err)
	}
}

// TestAmplifyDeterministic amplifies the overnet trace, whose sessions are
// still open at its end, five times at one seed: the traces must be equal.
func TestAmplifyDeterministic(t *testing.T) {
	first := pipe(t, "overnet", "amplify -factor 2 -seed 1")
	for i := 1; i < 5; i++ {
		if !bytes.Equal(pipe(t, "overnet", "amplify -factor 2 -seed 1"), first) {
			t.Fatalf("amplify run %d printed a different trace than run 0", i)
		}
	}
}
