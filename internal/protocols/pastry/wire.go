package pastry

import (
	"strconv"

	"github.com/splaykit/splay/internal/llenc"
)

// Fast codecs (llenc.FastMarshaler/FastUnmarshaler, the contract rpc's
// envelopes ride) for what the route hop carries: the key, the node
// reference and the result. Each is byte-identical to encoding/json's
// encoding — for ID that is MarshalJSON's 16 lower-case hex digits —
// and whatever a codec declines takes encoding/json as before.

// AppendJSON implements llenc.FastMarshaler.
func (id ID) AppendJSON(buf []byte) ([]byte, bool) {
	return append(llenc.AppendHex64(append(buf, '"'), uint64(id)), '"'), true
}

// walk parses one identifier at the cursor (see llenc.ParseValue) with
// the ParseUint call UnmarshalJSON makes on the same digits.
func (id *ID) walk(l *llenc.Lexer) bool {
	s, ok := l.RawString()
	v, err := strconv.ParseUint(string(s), 16, 64)
	if !ok || err != nil {
		return false
	}
	*id = ID(v)
	return true
}

// ParseJSON implements llenc.FastUnmarshaler.
func (id *ID) ParseJSON(data []byte) bool { return llenc.ParseValue(data, id, (*ID).walk) }

// AppendJSON implements llenc.FastMarshaler.
func (r NodeRef) AppendJSON(buf []byte) ([]byte, bool) {
	b, _ := r.ID.AppendJSON(append(buf, `{"id":`...))
	b, ok := r.Addr.AppendJSON(append(b, `,"addr":`...))
	if !ok {
		return buf, false
	}
	return append(b, '}'), true
}

// walk parses one reference at the cursor.
func (r *NodeRef) walk(l *llenc.Lexer) bool {
	return l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			ok = r.ID.walk(l)
		case "addr":
			ok = r.Addr.WalkJSON(l)
		}
		return ok
	})
}

// ParseJSON implements llenc.FastUnmarshaler.
func (r *NodeRef) ParseJSON(data []byte) bool { return llenc.ParseValue(data, r, (*NodeRef).walk) }

// AppendJSON implements llenc.FastMarshaler.
func (rr routeResult) AppendJSON(buf []byte) ([]byte, bool) {
	b, ok := rr.Root.AppendJSON(append(buf, `{"root":`...))
	if !ok {
		return buf, false
	}
	b = append(b, `,"hops":`...)
	return append(llenc.AppendInt(b, int64(rr.Hops)), '}'), true
}

// ParseJSON implements llenc.FastUnmarshaler.
func (rr *routeResult) ParseJSON(data []byte) bool {
	return llenc.ParseValue(data, rr, func(rr *routeResult, l *llenc.Lexer) bool {
		return l.Object(func(key []byte) (ok bool) {
			switch string(key) {
			case "root":
				ok = rr.Root.walk(l)
			case "hops":
				rr.Hops, ok = l.Int()
			}
			return ok
		})
	})
}
