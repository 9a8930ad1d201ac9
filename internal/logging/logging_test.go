package logging

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWriterSinkFormatting pins one line's exact bytes: the RFC 3339
// time, the five-wide INFO column, the node and the message.
func TestWriterSinkFormatting(t *testing.T) {
	var sb strings.Builder
	lg := New(&WriterSink{W: &sb}, "n3:8000", "", func() time.Time { return time.Unix(90, 0).UTC() })
	lg.Printf("joined ring as %d", 42)
	if want := "1970-01-01T00:01:30Z INFO  n3:8000 joined ring as 42\n"; sb.String() != want {
		t.Fatalf("output %q, want %q", sb.String(), want)
	}
}

// TestSharedSinkKeepsLinesWhole: two loggers over one sink, written from
// concurrent goroutines, never interleave inside a line. Run with -race.
func TestSharedSinkKeepsLinesWhole(t *testing.T) {
	const lines = 500
	var sb strings.Builder
	sink := &WriterSink{W: &sb}
	clock := func() time.Time { return time.Unix(0, 0).UTC() }
	var wg sync.WaitGroup
	for _, node := range []string{"a", "b"} {
		lg := New(sink, node, "", clock)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range lines {
				lg.Printf("line %d of %s", i, node)
			}
		}()
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(got) != 2*lines {
		t.Fatalf("%d lines, want %d", len(got), 2*lines)
	}
	next := map[string]int{}
	for _, line := range got {
		var node string
		var i int
		if _, err := fmt.Sscanf(line, "1970-01-01T00:00:00Z INFO  %s line %d of", &node, &i); err != nil ||
			i != next[node] || line != fmt.Sprintf("1970-01-01T00:00:00Z INFO  %s line %d of %s", node, i, node) {
			t.Fatalf("line %q is not whole or out of order (err %v)", line, err)
		}
		next[node]++
	}
}
