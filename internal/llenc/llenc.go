// Package llenc implements SPLAY's llenc library: length-prefixed message
// framing over stream transports, with JSON payload helpers.
//
// The paper describes llenc as the library that "automatically performs
// message demarcation, computing buffer sizes and waiting for all packets of
// a message before delivery", layered under the json serialization library.
// Frames are a 4-byte big-endian length followed by the payload.
package llenc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxMessage bounds decoded message sizes so a corrupt or hostile peer
// cannot make a reader allocate unbounded memory.
const MaxMessage = 64 << 20

// ErrTooLarge is returned when an encoded frame exceeds MaxMessage.
var ErrTooLarge = errors.New("llenc: message exceeds maximum size")

// HeaderSize is the length prefix every frame carries ahead of its payload.
const HeaderSize = 4

// FastMarshaler is implemented by message types with a hand-rolled JSON
// fast path. AppendJSON appends the value's encoding to buf and reports
// whether it did; the appended bytes must be identical to json.Marshal's
// output for the value. When it reports false, buf is returned unchanged
// and the caller uses encoding/json instead. A type that also has a
// walker (WalkJSON, see "Value codecs" in fastjson.go) is parsed through
// it as a leaf of the derived plans.
type FastMarshaler interface {
	AppendJSON(buf []byte) ([]byte, bool)
}

// Writer frames messages onto an io.Writer.
//
// Frame staging buffers are borrowed from a package-wide pool for the
// duration of one write rather than retained per Writer: a system with
// one framing writer per cached connection (the RPC planes at simulation
// scale) would otherwise hold every connection's high-water frame size
// forever. Steady-state writes still allocate nothing.
//
// A Writer tallies what it puts on the wire, headers included: byte meters
// (rpc.bytes_out, the metrics reporter's Sent) read Bytes instead of
// wrapping the stream.
type Writer struct {
	w io.Writer
	n uint64
}

// wbufPool recycles frame staging buffers across all Writers.
var wbufPool = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter returns a framing writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Reset points the writer at dst, so a Writer embedded by value in
// per-connection state needs no separate allocation.
func (w *Writer) Reset(dst io.Writer) { w.w = dst }

// Bytes returns the frame bytes written so far; the tally survives Reset.
func (w *Writer) Bytes() uint64 { return w.n }

// WriteMessage writes one frame. It is not safe for concurrent use.
func (w *Writer) WriteMessage(payload []byte) error {
	if len(payload) > MaxMessage {
		return ErrTooLarge
	}
	bp := wbufPool.Get().(*[]byte)
	need := HeaderSize + len(payload)
	buf := *bp
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[HeaderSize:], payload)
	n, err := w.w.Write(buf)
	w.n += uint64(n)
	*bp = buf[:0]
	wbufPool.Put(bp)
	return err
}

// Encode marshals v as JSON and writes it as one frame. Values with their
// own codec or a derived plan (AppendDerived) encode straight into the
// frame buffer, skipping both reflection and the payload copy.
func (w *Writer) Encode(v any) error {
	bp := wbufPool.Get().(*[]byte)
	frame := append((*bp)[:0], 0, 0, 0, 0)
	if b, ok := AppendDerived(frame, v); ok {
		size := len(b) - HeaderSize
		if size > MaxMessage {
			*bp = b[:0]
			wbufPool.Put(bp)
			return ErrTooLarge
		}
		binary.BigEndian.PutUint32(b, uint32(size))
		n, err := w.w.Write(b)
		w.n += uint64(n)
		*bp = b[:0]
		wbufPool.Put(bp)
		return err
	}
	// Declined: keep whatever capacity the attempt grew.
	*bp = frame[:0]
	wbufPool.Put(bp)
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("llenc: encode: %w", err)
	}
	return w.WriteMessage(payload)
}

// Reader reads frames from an io.Reader, blocking in Read: what handshakes
// and applications use. Steady-state protocol streams are read by
// FrameReader, whose sinks meter HeaderSize+len(payload) per frame.
type Reader struct {
	r      io.Reader
	header [HeaderSize]byte
	buf    []byte // reused payload buffer
}

// NewReader returns a framing reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage reads one frame and returns its payload. The returned slice
// is valid until the next call to ReadMessage.
func (r *Reader) ReadMessage() ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.header[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(r.header[:])
	if n > MaxMessage {
		return nil, ErrTooLarge
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Decode reads one frame and unmarshals its JSON payload into v.
func (r *Reader) Decode(v any) error {
	payload, err := r.ReadMessage()
	if err != nil {
		return err
	}
	return Unmarshal(payload, v)
}

// Unmarshal decodes one frame's JSON payload into v: a receiver with a
// derived plan (ParseDerived) tries it first, and encoding/json takes
// anything declined. It is the second half of Reader.Decode, for a
// FrameSink that is handed the payload.
func Unmarshal(payload []byte, v any) error {
	if ParseDerived(payload, v) {
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("llenc: decode: %w", err)
	}
	return nil
}
