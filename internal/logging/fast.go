package logging

import (
	"time"

	"github.com/splaykit/splay/internal/llenc"
)

// Fast-path JSON codec for Record, the log plane's only frame type,
// under the same contract as the rpc/ctlproto/metrics codecs: encoded
// bytes identical to encoding/json's output for this struct, and a
// decline-don't-guess parser that either reproduces encoding/json's
// result exactly or reports false so the caller falls back. The one
// interesting field is Time: time.Time marshals through its own
// MarshalJSON (strict RFC 3339 with nanoseconds), so the fast paths
// bracket exactly the inputs whose formatting/parsing provably agrees
// with it and decline the rest (out-of-range years, exotic zone
// offsets, any non-strict timestamp text).

// timeSafe reports whether t formats through AppendFormat(RFC3339Nano)
// byte-identically to t.MarshalJSON: a four-digit year and a
// whole-minute zone offset below ±24h — precisely the cases
// MarshalJSON's strict serializer accepts rather than erroring.
func timeSafe(t time.Time) bool {
	if y := t.Year(); y < 0 || y > 9999 {
		return false
	}
	_, off := t.Zone()
	if off%60 != 0 {
		return false
	}
	if off < 0 {
		off = -off
	}
	return off < 24*3600
}

// AppendJSON implements llenc.FastMarshaler. On success the appended
// bytes equal json.Marshal(r); on false buf is returned with its
// original length.
func (r *Record) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Key) || !llenc.JSONSafe(r.Node) || !llenc.JSONSafe(r.Msg) {
		return buf, false
	}
	if !timeSafe(r.Time) {
		return buf, false
	}
	b := append(buf, `{"key":`...)
	b = llenc.AppendJSONString(b, r.Key)
	b = append(b, `,"time":"`...)
	b = r.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":`...)
	b = llenc.AppendInt(b, int64(r.Level))
	b = append(b, `,"node":`...)
	b = llenc.AppendJSONString(b, r.Node)
	b = append(b, `,"msg":`...)
	b = llenc.AppendJSONString(b, r.Msg)
	return append(b, '}'), true
}

// ParseJSON implements llenc.FastUnmarshaler: escapes, unknown keys
// and non-strict timestamps decline, leaving r untouched for the
// encoding/json fallback.
func (r *Record) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var out Record
	if !l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "key":
			out.Key, ok = l.String()
		case "time":
			var raw []byte
			if raw, ok = l.RawString(); ok {
				out.Time, ok = parseStrictTime(raw)
			}
		case "level":
			var v int
			v, ok = l.Int()
			out.Level = Level(v)
		case "node":
			out.Node, ok = l.String()
		case "msg":
			out.Msg, ok = l.String()
		}
		return ok
	}) || !l.End() {
		return false
	}
	*r = out
	return true
}

// parseStrictTime accepts exactly the strict RFC 3339 shape
// time.Time.UnmarshalJSON accepts — "2006-01-02T15:04:05[.frac]Z" or a
// "±hh:mm" offset, uppercase T and Z — and parses it with the RFC3339
// layout, which Go's Parse treats as strict, so the result cannot
// diverge from encoding/json's. Anything else declines.
func parseStrictTime(b []byte) (time.Time, bool) {
	// Minimal shape check; Parse validates digits and ranges.
	if len(b) < len("2006-01-02T15:04:05Z") || b[10] != 'T' {
		return time.Time{}, false
	}
	switch c := b[len(b)-1]; {
	case c == 'Z':
	case len(b) >= 6 && (b[len(b)-6] == '+' || b[len(b)-6] == '-') && b[len(b)-3] == ':':
	default:
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339, string(b))
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}
