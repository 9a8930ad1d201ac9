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
// parser, which validates the argument array and splits it into element
// spans in one pass. The response ({"id","e","r"}) has plain json tags
// and rides derived plans: the client reads a response (its Result a
// json.RawMessage the plan validates and copies), and the server writes
// a reply, whose Result is the llenc.Verbatim appendValue produced. The
// bytes are identical to encoding/json's for these structs — field
// order, omitempty, HTML escaping — which
// TestRPCFastEncodeMatchesEncodingJSON, TestReplyEncodesAsResponse and
// the fuzz targets check differentially, so the wire format (and with it
// every golden-pinned experiment) cannot diverge. Anything the fast path
// cannot reproduce exactly falls back to encoding/json.
//
// Only the element a handler asks for is decoded. The element spans
// live in pooled buffers owned by the server — see the ownership rules
// on Handler and in DESIGN.md ("The message plane").

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
		if llenc.ValidVerbatim(x) {
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
// results, which ride their reply in the buffer until it is framed.
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

// wireRequest is the server-side fast parse of a request frame. Its
// byte slices alias the parsed buffer: the serve loop parses its own
// pooled copy of the frame (an argList's raw), looks the method up
// without converting (the map[string(b)] non-allocating pattern) and
// hands the element spans to the handler as they are.
type wireRequest struct {
	ID        uint64
	RawMethod []byte
	Args      []json.RawMessage // the "a" array's element spans, in order
}

// parseRequest is the decline-don't-guess parser for request frames. On
// false the caller falls back to encoding/json. Acceptance is strictly
// narrower than encoding/json's: unknown keys, escaped method names and
// anything json.Valid rejects inside the args array all decline. The
// args array is validated and split in one pass (Lexer.ValueArray), its
// element spans appended to args[:0].
func parseRequest(data []byte, args []json.RawMessage) (wireRequest, bool) {
	out := wireRequest{Args: args[:0]}
	l := llenc.Lexer{Data: data}
	ok := l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			out.ID, ok = l.Uint()
		case "m":
			out.RawMethod, ok = l.RawString()
		case "a":
			// Strict: a handler must never meet an element
			// encoding/json would have rejected at envelope time.
			out.Args = out.Args[:0]
			ok = l.ValueArray(func(span []byte) {
				out.Args = append(out.Args, span)
			})
		}
		return ok
	})
	return out, ok && l.End()
}

// argList is the pooled backing store of Args: the server's copy of the
// request frame and the argument elements, split at parse.
type argList struct {
	raw   []byte            // the frame; nil when built from caller-owned elements
	elems []json.RawMessage // the elements, aliasing raw (or encoding/json's copies)
}

var argPool = sync.Pool{New: func() any { return new(argList) }}

// args hands the elements to a handler; an empty list goes straight back
// to the pool.
func (l *argList) args() Args {
	a := Args{l: l}
	if len(l.elems) == 0 {
		a.release()
		return Args{}
	}
	return a
}

// release recycles the backing store. The serve loop calls it after the
// handler has returned and its result has been marshaled; the Args (and
// any raw element bytes obtained from it) are invalid afterwards.
func (a Args) release() {
	if a.l == nil {
		return
	}
	clear(a.l.elems)
	a.l.elems = a.l.elems[:0]
	argPool.Put(a.l)
}
