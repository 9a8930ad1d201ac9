package logging

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestWriterSinkFormatting(t *testing.T) {
	var sb strings.Builder
	lg := New(&WriterSink{W: &sb}, "n3:8000", "", func() time.Time { return time.Unix(0, 0).UTC() })
	lg.Printf("joined ring as %d", 42)
	lg.Debugf("hidden by default? no — debug is the floor")
	out := sb.String()
	if !strings.Contains(out, "joined ring as 42") || !strings.Contains(out, "n3:8000") {
		t.Fatalf("output %q", out)
	}
}

func TestLevelFilterAndDisable(t *testing.T) {
	var sb strings.Builder
	lg := New(&WriterSink{W: &sb}, "n", "", nil)
	lg.SetLevel(Warn)
	lg.Printf("info hidden")
	lg.Warnf("warn shown")
	lg.Errorf("error shown")
	if strings.Contains(sb.String(), "hidden") {
		t.Fatal("level filter failed")
	}
	if !strings.Contains(sb.String(), "warn shown") || !strings.Contains(sb.String(), "error shown") {
		t.Fatal("warn/error dropped")
	}
	lg.SetEnabled(false)
	lg.Errorf("muted")
	if strings.Contains(sb.String(), "muted") {
		t.Fatal("disable failed")
	}
}

// TestDisabledLogAllocs: a disabled or level-filtered Log call must not
// pay Sprintf, a Record copy or any allocation before the guard drops it.
func TestDisabledLogAllocs(t *testing.T) {
	lg := New(&WriterSink{W: io.Discard}, "n1:8000", "", func() time.Time { return time.Time{} })

	lg.SetEnabled(false)
	if n := testing.AllocsPerRun(200, func() {
		lg.Errorf("dropped without formatting")
	}); n != 0 {
		t.Errorf("disabled no-arg Log allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		lg.Errorf("dropped %d %s", 7, "args")
	}); n != 0 {
		t.Errorf("disabled Log with args allocates %.1f/op", n)
	}

	lg.SetEnabled(true)
	lg.SetLevel(Warn)
	if n := testing.AllocsPerRun(200, func() {
		lg.Debugf("filtered %d %s", 7, "args")
	}); n != 0 {
		t.Errorf("level-filtered Log allocates %.1f/op", n)
	}

	// Sanity: the enabled path still emits.
	var sb strings.Builder
	lg2 := New(&WriterSink{W: &sb}, "n", "", nil)
	lg2.Printf("emitted %d", 42)
	if !strings.Contains(sb.String(), "emitted 42") {
		t.Fatal("enabled path lost the record")
	}
}
