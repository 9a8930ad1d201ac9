package rpc

import (
	"encoding/json"

	"github.com/splaykit/splay/internal/llenc"
)

// parseFast is the decoding half of the value seam: the scalar pointers
// handlers decode most — ids, hop counts, names, flags — are read by the
// lexer, and any other receiver takes its type's derived plan
// (llenc.ParseDerived). It reports false, with v untouched, for any
// input a parser declines (floats, escapes, surrounding whitespace on a
// scalar, a type with no plan); the caller then asks encoding/json.
func parseFast(data []byte, v any) bool {
	l := llenc.Lexer{Data: data}
	switch p := v.(type) {
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
	default:
		return llenc.ParseDerived(data, v)
	}
	return false
}

// unmarshal is json.Unmarshal for the values Args.Decode and
// Result.Decode see; what parseFast accepts never reaches encoding/json.
func unmarshal(data []byte, v any) error {
	if parseFast(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}
