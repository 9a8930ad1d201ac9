package cyclon

import "github.com/splaykit/splay/internal/llenc"

// entries is the shuffle payload as it travels, in both directions: a
// []Entry with a fast codec (llenc.FastMarshaler/FastUnmarshaler, the
// contract rpc's envelopes ride), byte-identical to encoding/json's
// encoding of the slice. Whatever the codec declines — a host that needs
// escaping, an unknown member — takes encoding/json as before.
type entries []Entry

// AppendJSON implements llenc.FastMarshaler.
func (e Entry) AppendJSON(buf []byte) ([]byte, bool) {
	b, ok := e.Addr.AppendJSON(append(buf, `{"addr":`...))
	if !ok {
		return buf, false
	}
	b = append(b, `,"age":`...)
	return append(llenc.AppendInt(b, int64(e.Age)), '}'), true
}

// walk parses one entry at the cursor (see llenc.ParseValue).
func (e *Entry) walk(l *llenc.Lexer) bool {
	return l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "addr":
			ok = e.Addr.WalkJSON(l)
		case "age":
			e.Age, ok = l.Int()
		}
		return ok
	})
}

// AppendJSON implements llenc.FastMarshaler.
func (s entries) AppendJSON(buf []byte) ([]byte, bool) { return llenc.AppendList(buf, s) }

// ParseJSON implements llenc.FastUnmarshaler.
func (s *entries) ParseJSON(data []byte) bool {
	return llenc.ParseValue(data, (*[]Entry)(s), func(s *[]Entry, l *llenc.Lexer) bool {
		return llenc.ParseList(l, s, func(e *Entry) bool { return e.walk(l) })
	})
}
