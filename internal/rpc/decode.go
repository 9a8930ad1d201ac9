package rpc

import (
	"bytes"
	"encoding/json"
	"sync"

	"github.com/splaykit/splay/internal/llenc"
)

// maxPooledDecode is the largest value the pooled decoders take. A
// json.Decoder keeps a buffer the size of the largest value it has seen,
// so big payloads go straight to json.Unmarshal, where one decode state is
// noise beside the payload anyway.
const maxPooledDecode = 4096

// valueDecoder is a reusable encoding/json decoder over a resettable
// reader. json.Unmarshal heap-allocates its decode state on every call;
// at one argument and one result decode per RPC that was over 40 % of the
// bytes a chord lookup window allocated, and the collections it forced
// were the main reason one window slice took longer than the next. A
// json.Decoder embeds the same state and runs the same unmarshal code, so
// keeping decoders in a pool removes the allocation without a second
// decoding path to keep in step.
type valueDecoder struct {
	src bytes.Reader
	dec *json.Decoder
}

var decoderPool = sync.Pool{New: func() any {
	d := new(valueDecoder)
	d.dec = json.NewDecoder(&d.src)
	return d
}}

// parseFast is the decoding half of the value seam: a receiver with its
// own codec (llenc.FastUnmarshaler) parses itself, and the scalar
// pointers handlers decode most — ids, hop counts, names, flags — are
// read by the lexer. It reports false, with v untouched, for every other
// receiver and for any input a parser declines (null, floats, escapes,
// surrounding whitespace on a scalar); the caller then asks encoding/json.
func parseFast(data []byte, v any) bool {
	l := llenc.Lexer{Data: data}
	switch p := v.(type) {
	case llenc.FastUnmarshaler:
		return p.ParseJSON(data)
	case *uint64:
		if x, ok := l.Uint(); ok && l.End() {
			*p = x
			return true
		}
	case *int:
		if x, ok := l.Int(); ok && l.End() {
			*p = x
			return true
		}
	case *string:
		if x, ok := l.RawString(); ok && l.End() {
			*p = string(x)
			return true
		}
	case *bool:
		if s := string(data); s == "true" || s == "false" {
			*p = s == "true"
			return true
		}
	}
	return false
}

// unmarshal is json.Unmarshal for the small values Args.Decode and
// Result.Decode see; what parseFast accepts never reaches encoding/json.
// A decoder goes back to the pool only when it consumed its input to the
// last byte without error; on anything else — a syntax or type error,
// bytes after the value — json.Unmarshal decides the outcome and the
// decoder, whose buffer may hold leftovers, is dropped.
func unmarshal(data []byte, v any) error {
	if parseFast(data, v) {
		return nil
	}
	if len(data) > maxPooledDecode {
		return json.Unmarshal(data, v)
	}
	d := decoderPool.Get().(*valueDecoder)
	d.src.Reset(data)
	start := d.dec.InputOffset()
	if err := d.dec.Decode(v); err != nil || d.dec.InputOffset()-start != int64(len(data)) {
		return json.Unmarshal(data, v)
	}
	d.src.Reset(nil) // don't pin the caller's (pooled) buffer from the pool
	decoderPool.Put(d)
	return nil
}
