package llenc

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, msg := range []string{"", "a", "hello world", string(make([]byte, 100000))} {
		if err := w.WriteMessage([]byte(msg)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	r := NewReader(&buf)
	for _, want := range []string{"", "a", "hello world", string(make([]byte, 100000))} {
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if string(got) != want {
			t.Fatalf("got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Fatalf("at end: %v, want EOF", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type msg struct {
		Op   string         `json:"op"`
		Args []any          `json:"args"`
		Meta map[string]int `json:"meta"`
	}
	var buf bytes.Buffer
	in := msg{Op: "find_successor", Args: []any{"id", 42.0}, Meta: map[string]int{"ttl": 3}}
	if err := NewWriter(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := NewReader(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || len(out.Args) != 2 || out.Meta["ttl"] != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestTooLarge(t *testing.T) {
	var buf bytes.Buffer
	// Forge a frame header claiming a huge payload.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	r := NewReader(&buf)
	if _, err := r.ReadMessage(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteMessage([]byte("hello"))
	trunc := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.ReadMessage(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0}))
	if _, err := r.ReadMessage(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeBadJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteMessage([]byte("{not json"))
	var v map[string]any
	if err := NewReader(&buf).Decode(&v); err == nil {
		t.Fatal("decoded invalid JSON")
	}
}

// Property: any sequence of arbitrary byte messages survives framing.
func TestQuickFraming(t *testing.T) {
	f := func(msgs [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, m := range msgs {
			if err := w.WriteMessage(m); err != nil {
				return false
			}
		}
		r := NewReader(&buf)
		for _, m := range msgs {
			got, err := r.ReadMessage()
			if err != nil || !bytes.Equal(got, m) {
				return false
			}
		}
		_, err := r.ReadMessage()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteMessage(b *testing.B) {
	payload := make([]byte, 1024)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		w.WriteMessage(payload)
	}
}

// wireCounter is the socket decorator the tallies replaced: it counts what
// crosses the stream underneath a Writer or Reader.
type wireCounter struct {
	rw     io.ReadWriter
	rd, wr uint64
}

func (c *wireCounter) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.rd += uint64(n)
	return n, err
}

func (c *wireCounter) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.wr += uint64(n)
	return n, err
}

// fastMsg takes the FastMarshaler path unless told to decline.
type fastMsg struct {
	V       string `json:"v"`
	decline bool
}

func (m *fastMsg) AppendJSON(buf []byte) ([]byte, bool) {
	if m.decline {
		return buf, false
	}
	return append(AppendJSONString(append(buf, `{"v":`...), m.V), '}'), true
}

// TestTalliesMatchTheWire: Writer.Bytes equals what a counting wrapper
// under it sees, frame by frame — raw frames, the fast encode path, a
// declined fast path, plain encoding/json and an oversized frame the writer
// refuses (nothing written, nothing counted) — and a FrameSink that sums
// HeaderSize+len(payload), as rpc's and the aggregator's do, arrives at the
// count of a wrapper under its FrameReader, event-driven or blocking.
func TestTalliesMatchTheWire(t *testing.T) {
	var stream bytes.Buffer
	wire := &wireCounter{rw: &stream}
	w := NewWriter(wire)
	check := func(step string) {
		t.Helper()
		if w.Bytes() != wire.wr {
			t.Fatalf("%s: writer tally %d (wire %d)", step, w.Bytes(), wire.wr)
		}
	}
	writes := []struct {
		name string
		do   func() error
	}{
		{"raw frame", func() error { return w.WriteMessage([]byte("hello")) }},
		{"empty frame", func() error { return w.WriteMessage(nil) }},
		{"fast path", func() error { return w.Encode(&fastMsg{V: "fast"}) }},
		{"declined fast path", func() error { return w.Encode(&fastMsg{V: "slow", decline: true}) }},
		{"encoding/json", func() error { return w.Encode(map[string]int{"a": 1}) }},
	}
	var want uint64
	for _, step := range writes {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check("after writing " + step.name)
		if w.Bytes() < want+HeaderSize {
			t.Fatalf("%s moved the writer tally from %d to %d: less than a header", step.name, want, w.Bytes())
		}
		want = w.Bytes()
	}
	if err := w.WriteMessage(make([]byte, MaxMessage+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrTooLarge", err)
	}
	check("after the refused frame")
	if w.Bytes() != want || want != uint64(stream.Len()) {
		t.Fatalf("writer tally %d after a refused frame, want %d (stream holds %d)", w.Bytes(), want, stream.Len())
	}

	ev, plain, evRead, plainRead := readBoth(t, stream.Bytes(), []byte{2, 0, 9}, 0)
	if len(ev.frames) != len(writes) || ev.bytes != want || ev.bytes != evRead || plain.bytes != want || plain.bytes != plainRead {
		t.Fatalf("sinks summed %d (event, %d frames) and %d (blocking) over %d and %d wire bytes, writer wrote %d",
			ev.bytes, len(ev.frames), plain.bytes, evRead, plainRead, want)
	}

	// The tally outlives the stream: Reset keeps counting.
	w.Reset(io.Discard)
	if err := w.WriteMessage([]byte("abc")); err != nil || w.Bytes() != want+HeaderSize+3 {
		t.Fatalf("after Reset: err %v, tally %d, want %d", err, w.Bytes(), want+HeaderSize+3)
	}
}
