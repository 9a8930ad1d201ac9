package llenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// chunkStream serves a byte stream cut into chunks: one Read never
// crosses a cut, the way a socket hands over what has arrived.
type chunkStream struct {
	chunks [][]byte
	cur    []byte
	rd     uint64 // bytes handed out: the counting wrapper under a reader
}

func (s *chunkStream) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		if len(s.chunks) == 0 {
			return 0, io.EOF
		}
		s.cur, s.chunks = s.chunks[0], s.chunks[1:]
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	s.rd += uint64(n)
	return n, nil
}

// eventChunks is the same stream as an event source: TryRead hands out the
// chunk that has arrived and reports (0, nil) when it is used up; pump
// then delivers the next one (or EOF) and fires the armed callback, one
// arrival per wake like simnet.
type eventChunks struct {
	chunkStream
	eof bool
	cb  func()
}

func (e *eventChunks) Read([]byte) (int, error) { panic("blocking Read on an event source") }

func (e *eventChunks) TryRead(p []byte) (int, error) {
	if len(e.cur) == 0 {
		if e.eof {
			return 0, io.EOF
		}
		return 0, nil
	}
	n := copy(p, e.cur)
	e.cur = e.cur[n:]
	e.rd += uint64(n)
	return n, nil
}

func (e *eventChunks) OnReadable(cb func()) {
	if e.cb != nil {
		panic("armed twice")
	}
	e.cb = cb
}

func (e *eventChunks) pump(fr *FrameReader) {
	fr.Run()
	for e.cb != nil {
		cb := e.cb
		e.cb = nil
		if len(e.chunks) > 0 {
			e.cur, e.chunks = e.chunks[0], e.chunks[1:]
		} else {
			e.eof = true
		}
		cb()
	}
}

// recordSink keeps what a FrameReader hands over; it declines frame
// number stop (counting from 1; 0 never declines).
type recordSink struct {
	frames [][]byte
	bytes  uint64 // HeaderSize+len(payload) summed, as a metering sink does
	stop   int
	ends   int
	err    error
}

func (s *recordSink) OnFrame(payload []byte) bool {
	s.frames = append(s.frames, append([]byte{}, payload...))
	s.bytes += uint64(HeaderSize + len(payload))
	return len(s.frames) != s.stop
}

func (s *recordSink) OnEnd(err error) { s.ends++; s.err = err }

// cut splits stream at the lengths cuts spells (each byte + 1, cycling).
func cut(stream, cuts []byte) [][]byte {
	var chunks [][]byte
	for i := 0; len(stream) > 0; i++ {
		n := len(stream)
		if len(cuts) > 0 {
			n = min(n, int(cuts[i%len(cuts)])+1)
		}
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return chunks
}

// readBoth runs a FrameReader over stream as an event source and as a
// plain io.Reader and returns both sinks and the bytes each took.
func readBoth(t *testing.T, stream, cuts []byte, stop int) (ev, plain *recordSink, evRead, plainRead uint64) {
	t.Helper()
	var fr FrameReader
	ev = &recordSink{stop: stop}
	src := &eventChunks{chunkStream: chunkStream{chunks: cut(stream, cuts)}}
	fr.Init(src, ev, nil)
	src.pump(&fr)
	if fr.buf != nil {
		t.Error("event reader holds a pooled buffer after the end")
	}

	var fp FrameReader
	plain = &recordSink{stop: stop}
	ps := &chunkStream{chunks: cut(stream, cuts)}
	bracketed := 0
	fp.Init(ps, plain, func(read func()) { bracketed++; read() })
	fp.Run()
	if bracketed == 0 {
		t.Error("the blocking reads did not go through the caller's hook")
	}
	return ev, plain, src.rd, ps.rd
}

// FuzzFrameReader: an arbitrary byte stream cut at arbitrary points reads
// the same through FrameReader over an event source, FrameReader over a
// plain io.Reader and Reader — same frames, same terminal verdict (io.EOF
// on a boundary, io.ErrUnexpectedEOF mid-header and mid-payload,
// ErrTooLarge past MaxMessage) — a declining sink stops either with
// OnEnd(nil), OnEnd fires exactly once, and no pooled buffer outlives the
// end.
func FuzzFrameReader(f *testing.F) {
	frame := func(payloads ...string) []byte {
		var b bytes.Buffer
		w := NewWriter(&b)
		for _, p := range payloads {
			w.WriteMessage([]byte(p)) //nolint:errcheck
		}
		return b.Bytes()
	}
	f.Add(frame("hello", "", "world"), []byte{0}, uint8(0))
	f.Add(frame("hello", "", "world"), []byte{2, 0, 6}, uint8(2))
	f.Add(frame("a", "bc")[:7], []byte{}, uint8(0))                               // mid-payload
	f.Add(append(frame("abc"), 0, 0), []byte{4}, uint8(0))                        // mid-header
	f.Add(append(frame("abc"), 0xFF, 0xFF, 0xFF, 0xFF, 'x'), []byte{1}, uint8(0)) // too large
	f.Add(frame("abc"), []byte{1}, uint8(1))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, stop uint8) {
		// The oracle, which also keeps the fuzzer off frames that are
		// legal but would allocate up to MaxMessage three times over.
		var want [][]byte
		var verdict error
		r := NewReader(bytes.NewReader(stream))
		for at := 0; ; at += HeaderSize + len(want[len(want)-1]) {
			if rest := stream[at:]; len(rest) >= HeaderSize {
				if n := binary.BigEndian.Uint32(rest); n > 1<<20 && n <= MaxMessage {
					t.Skip("a frame over 1 MiB")
				}
			}
			payload, err := r.ReadMessage()
			if err != nil {
				verdict = err
				break
			}
			want = append(want, append([]byte{}, payload...))
			if len(want) == int(stop) {
				break // the sink declines this one: verdict nil
			}
		}

		ev, plain, _, _ := readBoth(t, stream, cuts, int(stop))
		for name, got := range map[string]*recordSink{"event": ev, "plain": plain} {
			if got.ends != 1 {
				t.Errorf("%s: OnEnd fired %d times", name, got.ends)
			}
			if !errors.Is(got.err, verdict) || (verdict == nil) != (got.err == nil) {
				t.Errorf("%s: verdict %v, want %v", name, got.err, verdict)
			}
			if len(got.frames) != len(want) {
				t.Fatalf("%s: %d frames, want %d", name, len(got.frames), len(want))
			}
			for i := range want {
				if !bytes.Equal(got.frames[i], want[i]) {
					t.Errorf("%s: frame %d = %q, want %q", name, i, got.frames[i], want[i])
				}
			}
		}
	})
}

// TestFrameReaderRefusesOversizedHeader: a forged length past MaxMessage
// ends the stream with ErrTooLarge before anything is allocated for it.
func TestFrameReaderRefusesOversizedHeader(t *testing.T) {
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev, plain, _, _ := readBoth(t, forged, []byte{1}, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(ev.err, ErrTooLarge) || !errors.Is(plain.err, ErrTooLarge) {
		t.Fatalf("verdicts %v (event), %v (plain), want ErrTooLarge", ev.err, plain.err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a 4 GiB header allocated %d bytes", grew)
	}
}
