package chord

import "github.com/splaykit/splay/internal/llenc"

// Fast codecs (llenc.FastMarshaler/FastUnmarshaler, the contract rpc's
// envelopes ride) for what the hot calls carry: the node reference of
// notify and predecessor, find_successor's result and the successor
// list. Each is byte-identical to encoding/json's encoding of the same
// struct; whatever a codec declines takes encoding/json as before.

// AppendJSON implements llenc.FastMarshaler.
func (r NodeRef) AppendJSON(buf []byte) ([]byte, bool) {
	b := llenc.AppendUint(append(buf, `{"id":`...), r.ID)
	b, ok := r.Addr.AppendJSON(append(b, `,"addr":`...))
	if !ok {
		return buf, false
	}
	return append(b, '}'), true
}

// walk parses one reference at the cursor (see llenc.ParseValue).
func (r *NodeRef) walk(l *llenc.Lexer) bool {
	return l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			r.ID, ok = l.Uint()
		case "addr":
			ok = r.Addr.WalkJSON(l)
		}
		return ok
	})
}

// ParseJSON implements llenc.FastUnmarshaler.
func (r *NodeRef) ParseJSON(data []byte) bool { return llenc.ParseValue(data, r, (*NodeRef).walk) }

// AppendJSON implements llenc.FastMarshaler.
func (f findResult) AppendJSON(buf []byte) ([]byte, bool) {
	b, ok := f.Node.AppendJSON(append(buf, `{"node":`...))
	if !ok {
		return buf, false
	}
	b = append(b, `,"hops":`...)
	return append(llenc.AppendInt(b, int64(f.Hops)), '}'), true
}

// ParseJSON implements llenc.FastUnmarshaler.
func (f *findResult) ParseJSON(data []byte) bool {
	return llenc.ParseValue(data, f, func(f *findResult, l *llenc.Lexer) bool {
		return l.Object(func(key []byte) (ok bool) {
			switch string(key) {
			case "node":
				ok = f.Node.walk(l)
			case "hops":
				f.Hops, ok = l.Int()
			}
			return ok
		})
	})
}

// nodeRefs is the successor list as it travels.
type nodeRefs []NodeRef

// AppendJSON implements llenc.FastMarshaler.
func (s nodeRefs) AppendJSON(buf []byte) ([]byte, bool) { return llenc.AppendList(buf, s) }

// ParseJSON implements llenc.FastUnmarshaler.
func (s *nodeRefs) ParseJSON(data []byte) bool {
	return llenc.ParseValue(data, (*[]NodeRef)(s), func(s *[]NodeRef, l *llenc.Lexer) bool {
		return llenc.ParseList(l, s, func(r *NodeRef) bool { return r.walk(l) })
	})
}
