package ctlproto

import (
	"encoding/json"
	"strconv"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Fast-path JSON codec for Msg, the control plane's only frame type.
// Profiling the controller at thousands of daemons shows reflection-based
// encoding/json dominating CPU on both sides of the session (REGISTER
// fan-out, ping monitoring), so Msg implements llenc's FastMarshaler and
// FastUnmarshaler. The encoding is byte-for-byte identical to
// encoding/json's output for this struct — field order, omitempty rules,
// HTML escaping — which TestFastCodecMatchesEncodingJSON checks
// differentially; anything the fast path cannot reproduce exactly
// (strings needing escapes, non-ASCII, job parameters encoding/json would
// rewrite) reports false and the caller falls back to encoding/json, so
// the wire format never diverges. Node addresses are transport.Addr's own
// codec; job parameters travel as the raw span they are. The
// character-class rules, lexer primitives and the object/array walk are
// shared with the other codecs via llenc (JSONSafe, Lexer.Object/Array).

// AppendJSON implements llenc.FastMarshaler. On success the appended
// bytes equal json.Marshal(m); on false buf is returned unchanged.
func (m *Msg) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(m.Type) || !llenc.JSONSafe(m.Name) || !llenc.JSONSafe(m.Key) || !llenc.JSONSafe(m.Err) {
		return buf, false
	}
	for _, h := range m.Hosts {
		if !llenc.JSONSafe(h) {
			return buf, false
		}
	}
	if j := m.Job; j != nil {
		if !llenc.JSONSafe(j.ID) || !llenc.JSONSafe(j.App) || len(j.Params) > 0 && !paramsVerbatim(j.Params) {
			return buf, false
		}
	}
	b := append(buf, `{"seq":`...)
	b = llenc.AppendUint(b, m.Seq)
	b = append(b, `,"type":"`...)
	b = append(b, m.Type...)
	b = append(b, '"')
	if m.Name != "" {
		b = appendStrField(b, `,"name":"`, m.Name)
	}
	if m.Key != "" {
		b = appendStrField(b, `,"key":"`, m.Key)
	}
	if m.PortLow != 0 {
		b = appendIntField(b, `,"port_low":`, m.PortLow)
	}
	if m.PortHigh != 0 {
		b = appendIntField(b, `,"port_high":`, m.PortHigh)
	}
	if j := m.Job; j != nil {
		b = append(b, `,"job":{"id":"`...)
		b = append(b, j.ID...)
		b = append(b, `","app":"`...)
		b = append(b, j.App...)
		b = append(b, '"')
		if len(j.Params) > 0 {
			b = append(append(b, `,"params":`...), j.Params...)
		}
		if j.Position != 0 {
			b = appendIntField(b, `,"position":`, j.Position)
		}
		if len(j.Nodes) > 0 {
			var ok bool
			if b, ok = llenc.AppendList(append(b, `,"nodes":`...), j.Nodes); !ok {
				return buf, false // a host encoding/json would escape
			}
		}
		b = append(b, '}')
	}
	if len(m.Hosts) > 0 {
		b = append(b, `,"hosts":[`...)
		for i, h := range m.Hosts {
			if i > 0 {
				b = append(b, ',')
			}
			b = llenc.AppendJSONString(b, h)
		}
		b = append(b, ']')
	}
	if m.Port != 0 {
		b = appendIntField(b, `,"port":`, m.Port)
	}
	if m.Err != "" {
		b = appendStrField(b, `,"err":"`, m.Err)
	}
	b = append(b, '}')
	return b, true
}

// paramsVerbatim reports whether encoding/json would emit the raw job
// parameters byte for byte — and read them back the same: it captures a
// literal null too, but nothing here proves that, so null declines.
func paramsVerbatim(p []byte) bool {
	return llenc.JSONVerbatim(p) && llenc.ValidJSON(p) && string(p) != "null"
}

func appendStrField(b []byte, prefix, s string) []byte {
	b = append(b, prefix...)
	b = append(b, s...)
	return append(b, '"')
}

func appendIntField(b []byte, prefix string, v int) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, int64(v), 10)
}

// ParseJSON implements llenc.FastUnmarshaler: key switches over
// llenc's object walker for the exact shape the fast encoder (and
// encoding/json on this struct) produces. It reports false — leaving m
// untouched — on anything it does not handle: escape sequences, unknown
// keys, null, floats, or a repeated job/nodes member (encoding/json
// merges the second into the first's structs).
// In each switch a key no case names leaves ok false. The caller then
// retries with encoding/json.
func (m *Msg) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var out Msg
	if !l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "seq":
			out.Seq, ok = l.Uint()
		case "type":
			var b []byte
			b, ok = l.RawString()
			out.Type = internType(b)
		case "name":
			out.Name, ok = l.String()
		case "key":
			out.Key, ok = l.String()
		case "port_low":
			out.PortLow, ok = l.Int()
		case "port_high":
			out.PortHigh, ok = l.Int()
		case "job":
			if out.Job != nil {
				return false
			}
			j := &Job{}
			out.Job = j
			ok = l.Object(func(key []byte) (ok bool) {
				switch string(key) {
				case "id":
					j.ID, ok = l.String()
				case "app":
					j.App, ok = l.String()
				case "params":
					// The raw span, as rpc carries json.RawMessage
					// arguments: strictly validated, then copied out of
					// the read buffer.
					var span []byte
					span, ok = l.Value()
					ok = ok && string(span) != "null"
					j.Params = append(json.RawMessage(nil), span...)
				case "position":
					j.Position, ok = l.Int()
				case "nodes":
					if j.Nodes != nil {
						return false
					}
					j.Nodes = []transport.Addr{}
					ok = l.Array(func() bool {
						var a transport.Addr
						ok := a.WalkJSON(&l)
						j.Nodes = append(j.Nodes, a)
						return ok
					})
				}
				return ok
			})
		case "hosts":
			out.Hosts = []string{}
			ok = l.Array(func() bool {
				s, ok := l.String()
				out.Hosts = append(out.Hosts, s)
				return ok
			})
		case "port":
			out.Port, ok = l.Int()
		case "err":
			out.Err, ok = l.String()
		}
		return ok
	}) || !l.End() {
		return false
	}
	*m = out
	return true
}

// internType avoids a string allocation for the protocol's fixed command
// and answer types (the compiler performs the switch without converting).
func internType(b []byte) string {
	switch string(b) {
	case THello:
		return THello
	case TWelcome:
		return TWelcome
	case TRegister:
		return TRegister
	case TList:
		return TList
	case TStart:
		return TStart
	case TStop:
		return TStop
	case TFree:
		return TFree
	case TPing:
		return TPing
	case TAck:
		return TAck
	case TErr:
		return TErr
	case TBlacklist:
		return TBlacklist
	}
	return string(b)
}
