package rpc

import (
	"encoding/json"
	"sync"

	"github.com/splaykit/splay/internal/llenc"
)

// Fast-path JSON codec for the RPC request frame, the one hand-written
// frame codec: a request ({"id","m","a"}) implements llenc.FastMarshaler
// with a hand-rolled encoder, because no derived plan can carry its
// positional []any arguments, and parseRequest is its decline-don't-guess
// parser, which keeps the argument array as a raw span for the lazy
// decode below. The response ({"id","e","r"}) has plain json tags and
// rides its derived plan both ways (llenc.Writer.Encode, llenc.Unmarshal).
// The bytes are identical to encoding/json's for these structs — field
// order, omitempty, HTML escaping — which
// TestRPCFastEncodeMatchesEncodingJSON and the fuzz targets check
// differentially, so the wire format (and with it every golden-pinned
// experiment) cannot diverge. Anything the fast path cannot reproduce
// exactly falls back to encoding/json.
//
// The decode side is lazy: the server's fast parser captures the
// argument array as one raw byte span without touching its elements;
// Args splits the span only when a handler actually reads an argument,
// and decodes only the elements it is asked for. Raw spans live in
// pooled buffers owned by the server — see the ownership rules on
// Handler and in DESIGN.md ("The message plane").

// appendValue is the one value encoder of the message plane: call
// arguments, handler results and PreEncode all go through it, and it
// appends exactly what encoding/json would. Common scalar types are
// hand-rolled; pre-encoded json.RawMessage values are appended verbatim
// when provably canonical; any other value takes its type's derived plan
// (llenc.AppendDerived); whatever declines takes an encoding/json round
// trip (still byte-identical: a value's encoding does not depend on where
// it sits). The error is json.Marshal's, for a value that cannot be
// marshaled at all.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		if x {
			return append(b, "true"...), nil
		}
		return append(b, "false"...), nil
	case string:
		if llenc.JSONSafe(x) {
			return llenc.AppendJSONString(b, x), nil
		}
	case int:
		return llenc.AppendInt(b, int64(x)), nil
	case int64:
		return llenc.AppendInt(b, x), nil
	case int32:
		return llenc.AppendInt(b, int64(x)), nil
	case uint64:
		return llenc.AppendUint(b, x), nil
	case uint:
		return llenc.AppendUint(b, uint64(x)), nil
	case json.RawMessage:
		if len(x) > 0 && llenc.JSONVerbatim(x) && llenc.ValidJSON(x) {
			return append(b, x...), nil
		}
	default:
		if enc, ok := llenc.AppendDerived(b, v); ok {
			return enc, nil
		}
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

// maxPooledScratch keeps one large payload (a BitTorrent piece) from
// pinning its size in the scratch pool.
const maxPooledScratch = 64 << 10

// valueScratch stages encodes: marshalValue's, so a value costs one
// exact-size allocation however large it grows on the way, and handler
// results, which ride their response in the buffer until it is framed.
var valueScratch = sync.Pool{New: func() any { return new([]byte) }}

// marshalValue is appendValue into a fresh slice the caller owns (Marshal
// and PreEncode).
func marshalValue(v any) (json.RawMessage, error) {
	bp := valueScratch.Get().(*[]byte)
	b, err := appendValue((*bp)[:0], v)
	var out json.RawMessage
	if err == nil {
		out = append(out, b...)
	}
	releaseScratch(bp, b)
	return out, err
}

// releaseScratch returns a staging buffer, now grown to b, to the pool.
func releaseScratch(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledScratch {
		*bp = b[:0]
	}
	valueScratch.Put(bp)
}

// AppendJSON implements llenc.FastMarshaler for the request envelope.
// On success the appended bytes equal json.Marshal(r); on false buf is
// returned with its original length (trailing capacity may be dirty).
func (r *request) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Method) {
		return buf, false
	}
	b := append(buf, `{"id":`...)
	b = llenc.AppendUint(b, r.ID)
	b = append(b, `,"m":"`...)
	b = append(b, r.Method...)
	b = append(b, '"')
	if len(r.Args) > 0 {
		b = append(b, `,"a":[`...)
		for i, a := range r.Args {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendValue(b, a); err != nil {
				return buf, false // the fallback surfaces the same error
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// wireRequest is the server-side fast parse of a request frame.
// RawMethod and RawArgs alias the connection's read buffer and are only
// valid until the next frame is read; the serve loop looks the method up
// without converting (the map[string(b)] non-allocating pattern) and
// copies the args into a pooled Args before handing off.
type wireRequest struct {
	ID        uint64
	RawMethod []byte
	RawArgs   []byte // the "a" array, nil when absent
}

// parseRequest is the decline-don't-guess parser for request frames. On
// false the caller falls back to encoding/json. Acceptance is strictly
// narrower than encoding/json's: unknown keys, escaped method names and
// anything json.Valid rejects inside the args array all decline.
func parseRequest(data []byte) (wireRequest, bool) {
	var out wireRequest
	l := llenc.Lexer{Data: data}
	ok := l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			out.ID, ok = l.Uint()
		case "m":
			out.RawMethod, ok = l.RawString()
		case "a":
			// Strict: the lazy split must never surface errors the
			// eager path reported at envelope time.
			out.RawArgs, ok = l.Value()
			ok = ok && out.RawArgs[0] == '['
		}
		return ok
	})
	return out, ok && l.End()
}

// argList is the pooled backing store of Args: the raw argument array
// (server-owned copy of the wire bytes) and its lazily split elements.
type argList struct {
	raw   []byte            // the JSON array; nil when built from pre-split elements
	elems []json.RawMessage // split elements, aliasing raw (or eager fallback copies)
	split bool
}

var argPool = sync.Pool{New: func() any { return new(argList) }}

// newArgsRaw copies the wire bytes of the argument array into a pooled
// buffer and defers all element work until a handler asks.
func newArgsRaw(raw []byte) Args {
	if len(raw) == 0 {
		return Args{}
	}
	l := argPool.Get().(*argList)
	l.raw = append(l.raw[:0], raw...)
	l.elems = l.elems[:0]
	l.split = false
	return Args{l: l}
}

// newArgsSplit wraps already-split elements (the encoding/json fallback
// path) in the same pooled shape.
func newArgsSplit(elems []json.RawMessage) Args {
	l := argPool.Get().(*argList)
	l.raw = l.raw[:0]
	l.elems = elems
	l.split = true
	return Args{l: l}
}

// release recycles the backing store. The serve loop calls it after the
// handler has returned and its result has been marshaled; the Args (and
// any raw element bytes obtained from it) are invalid afterwards.
func (a Args) release() {
	if a.l == nil {
		return
	}
	for i := range a.l.elems {
		a.l.elems[i] = nil
	}
	argPool.Put(a.l)
}

// ensureSplit materializes the element spans. The raw bytes were
// validated with json.Valid at parse time, so the structural scan
// cannot fail; the encoding/json fallback covers the impossible case
// anyway rather than guessing.
func (l *argList) ensureSplit() {
	if l.split {
		return
	}
	l.split = true
	lex := llenc.Lexer{Data: l.raw}
	if !lex.Array(func() bool {
		span, ok := lex.SkipValue()
		l.elems = append(l.elems, json.RawMessage(span))
		return ok
	}) || !lex.End() {
		l.fallbackSplit()
	}
}

func (l *argList) fallbackSplit() {
	l.elems = l.elems[:0]
	var elems []json.RawMessage
	if err := json.Unmarshal(l.raw, &elems); err == nil {
		l.elems = elems
	}
}
